package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// frame builds one valid wire frame for the seed corpus.
func frame(payload []byte) []byte {
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, castagnoli))
	return append(hdr[:], payload...)
}

// FuzzScan throws arbitrary bytes at the frame scanner that recovery
// runs over crash-torn segments. The contract: never panic (corruption
// just ends the durable prefix), report a valid offset that is a frame
// boundary within the input, never return an empty record (eight zero
// bytes are the preallocated room past the log, not a frame), and be
// prefix-stable — rescanning after the bytes past the valid prefix are
// zeroed, as recovery does, must yield the identical records, since a
// second crash immediately after must recover the same state.
func FuzzScan(f *testing.F) {
	a := frame([]byte("admit tenant 1"))
	b := frame([]byte{}) // eight zero bytes: the end of the log, so c is never read
	c := frame(bytes.Repeat([]byte{0xa5}, 300))
	f.Add([]byte{})
	f.Add(a)
	f.Add(append(append(append([]byte{}, a...), b...), c...))
	f.Add(append(append([]byte{}, a...), a[:5]...)) // torn trailing frame
	corrupt := append(append([]byte{}, a...), c...)
	corrupt[len(a)+6] ^= 0xff // checksum break in the second frame
	f.Add(corrupt)
	huge := frame([]byte{1})
	binary.LittleEndian.PutUint32(huge[:4], 0xffffffff) // garbled length
	f.Add(append(append([]byte{}, a...), huge...))
	// Preallocated room, then a frame past it: only the frames before the
	// zeros are the log.
	f.Add(append(append(append(append([]byte{}, a...), c...), make([]byte, 64)...), a...))

	f.Fuzz(func(t *testing.T, data []byte) {
		records, valid := scan(data)
		if valid < 0 || valid > len(data) {
			t.Fatalf("valid offset %d outside input of %d bytes", valid, len(data))
		}

		// The valid prefix must be exactly the records re-framed: scan
		// may only accept whole, checksummed, non-empty frames.
		var reframed []byte
		for i, rec := range records {
			if len(rec) == 0 {
				t.Fatalf("record %d is empty", i)
			}
			reframed = append(reframed, frame(rec)...)
		}
		if !bytes.Equal(reframed, data[:valid]) {
			t.Fatalf("records re-framed (%d bytes) differ from the valid prefix (%d bytes)", len(reframed), valid)
		}

		// Prefix stability: recovery zeroes everything past valid and a
		// later recovery must see the same durable records.
		zeroed := append(append([]byte{}, data[:valid]...), make([]byte, len(data)-valid)...)
		again, valid2 := scan(zeroed)
		if valid2 != valid || len(again) != len(records) {
			t.Fatalf("rescan with the tail zeroed: %d records/%d bytes, want %d/%d",
				len(again), valid2, len(records), valid)
		}
		for i := range records {
			if !bytes.Equal(records[i], again[i]) {
				t.Fatalf("record %d changed across rescan", i)
			}
		}
	})
}
