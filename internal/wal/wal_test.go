package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// reopen closes the log and recovers the directory, asserting the
// recovered snapshot matches.
func reopen(t *testing.T, l *Log, wantSnap []byte) (*Log, [][]byte) {
	t.Helper()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	nl, snap, recs, err := Open(l.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap, wantSnap) {
		t.Fatalf("recovered snapshot %q, want %q", snap, wantSnap)
	}
	return nl, recs
}

func TestCreateAppendRecover(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, []byte("snap0"))
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 10; i++ {
		p := []byte(fmt.Sprintf("record-%d", i))
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
		want = append(want, p)
	}
	if st := l.Stats(); st.Gen != 1 || st.Records != 10 {
		t.Fatalf("stats = %+v, want gen 1 with 10 records", st)
	}

	l, recs := reopen(t, l, []byte("snap0"))
	defer l.Close()
	if len(recs) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(recs), len(want))
	}
	for i := range want {
		if !bytes.Equal(recs[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, recs[i], want[i])
		}
	}
}

func TestCreateRefusesExisting(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, err := Create(dir, nil); err == nil {
		t.Fatal("second Create succeeded")
	}
	if !HasLedger(dir) {
		t.Fatal("HasLedger = false for a created ledger")
	}
}

func TestOpenMissing(t *testing.T) {
	if _, _, _, err := Open(t.TempDir()); err == nil {
		t.Fatal("Open of empty dir succeeded")
	}
	if HasLedger(filepath.Join(t.TempDir(), "nope")) {
		t.Fatal("HasLedger = true for a missing dir")
	}
}

func TestRotateTruncatesLog(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, []byte("v1"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := l.Append([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Rotate([]byte("v2")); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Gen != 2 || st.Records != 0 || st.Offset != 0 {
		t.Fatalf("post-rotate stats = %+v, want empty gen 2", st)
	}
	if err := l.Append([]byte("after")); err != nil {
		t.Fatal(err)
	}

	l, recs := reopen(t, l, []byte("v2"))
	defer l.Close()
	if len(recs) != 1 || !bytes.Equal(recs[0], []byte("after")) {
		t.Fatalf("recovered records = %q, want [after]", recs)
	}
	// The old generation's files are gone.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.Name() == snapName(1) || e.Name() == logName(1) {
			t.Fatalf("stale generation file %s survived rotation", e.Name())
		}
	}
}

// TestRecoverTruncatedTail: a torn final record (half-written frame)
// must be dropped cleanly, preserving everything before it — and the
// recovered segment must stay appendable. The tear is made at the
// logical end of the records, either as zeros over the frame's last
// bytes (a write that did not reach the preallocated room) or by
// cutting the file there (a segment written before preallocation).
func TestRecoverTruncatedTail(t *testing.T) {
	for _, truncate := range []bool{false, true} {
		for cut := 1; cut <= 8+3; cut++ { // cut inside header and inside payload
			dir := t.TempDir()
			l, err := Create(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Append([]byte("keep-me")); err != nil {
				t.Fatal(err)
			}
			if err := l.Append([]byte("torn")); err != nil {
				t.Fatal(err)
			}
			end := l.Stats().Offset
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			path := filepath.Join(dir, logName(1))
			if truncate {
				err = os.Truncate(path, end-int64(cut))
			} else {
				err = writeAt(path, make([]byte, cut), end-int64(cut))
			}
			if err != nil {
				t.Fatal(err)
			}

			nl, _, recs, err := Open(dir)
			if err != nil {
				t.Fatalf("truncate %v cut %d: %v", truncate, cut, err)
			}
			if len(recs) != 1 || !bytes.Equal(recs[0], []byte("keep-me")) {
				t.Fatalf("truncate %v cut %d: recovered %q, want [keep-me]", truncate, cut, recs)
			}
			if err := nl.Append([]byte("new")); err != nil {
				t.Fatalf("truncate %v cut %d: append after recovery: %v", truncate, cut, err)
			}
			nl2, recs2 := reopen(t, nl, nil)
			nl2.Close()
			if len(recs2) != 2 || !bytes.Equal(recs2[1], []byte("new")) {
				t.Fatalf("truncate %v cut %d: second recovery got %q", truncate, cut, recs2)
			}
		}
	}
}

// writeAt overwrites part of the file at path, as a torn or stray write
// would have left it.
func writeAt(path string, b []byte, off int64) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	if _, err := f.WriteAt(b, off); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// TestRecoverCorruptedChecksum: a bit flip inside a record's payload
// invalidates its checksum; recovery stops at the last valid record
// before it and never panics.
func TestRecoverCorruptedChecksum(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	payloads := [][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma")}
	var offsets []int64
	for _, p := range payloads {
		offsets = append(offsets, l.Stats().Offset)
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one payload byte of the middle record.
	path := filepath.Join(dir, logName(1))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[offsets[1]+frameHeaderSize] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	nl, _, recs, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer nl.Close()
	// Only the prefix before the corruption survives; the valid record
	// after it is unreachable (no resynchronization) by design.
	if len(recs) != 1 || !bytes.Equal(recs[0], []byte("alpha")) {
		t.Fatalf("recovered %q, want [alpha]", recs)
	}
	if st := nl.Stats(); st.Offset != offsets[1] {
		t.Fatalf("offset after truncation = %d, want %d", st.Offset, offsets[1])
	}
}

// TestRecoverGarbledLength: a length prefix pointing far past the file
// must not drive a huge allocation or an error — it is a torn tail; a
// zero length ends the log the same way. Recovery zeroes everything
// past the last valid record: a well-formed stale frame sitting exactly
// where the next append ends must not come back after that append.
func TestRecoverGarbledLength(t *testing.T) {
	newFrame := len(frame([]byte("new")))
	for _, head := range [][]byte{
		bytes.Repeat([]byte{0xff}, newFrame), // 0xffffffff length "frame"
		make([]byte, newFrame),               // zero length: end of the log
	} {
		dir := t.TempDir()
		l, err := Create(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Append([]byte("ok")); err != nil {
			t.Fatal(err)
		}
		end := l.Stats().Offset
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, logName(1))
		if err := writeAt(path, append(head, frame([]byte("stale"))...), end); err != nil {
			t.Fatal(err)
		}

		nl, _, recs, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 1 || !bytes.Equal(recs[0], []byte("ok")) {
			t.Fatalf("head %x: recovered %q, want [ok]", head[0], recs)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if tail := raw[end:]; !bytes.Equal(tail, make([]byte, len(tail))) {
			t.Fatalf("head %x: recovery left non-zero bytes past the last valid record", head[0])
		}
		if err := nl.Append([]byte("new")); err != nil {
			t.Fatal(err)
		}
		nl, recs = reopen(t, nl, nil)
		nl.Close()
		if len(recs) != 2 || !bytes.Equal(recs[1], []byte("new")) {
			t.Fatalf("head %x: recovered %q after append, want [ok new]", head[0], recs)
		}
	}
}

// TestParentFormatSegment: a segment written before preallocation —
// frames back to back up to end of file, no zeros — opens with every
// record and grows on the next append.
func TestParentFormatSegment(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, []byte("s"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	old := append(frame([]byte("a")), frame([]byte("b"))...)
	path := filepath.Join(dir, logName(1))
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}

	l, _, recs, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || l.Stats().Offset != int64(len(old)) {
		t.Fatalf("recovered %q ending at %d, want [a b] ending at %d", recs, l.Stats().Offset, len(old))
	}
	if err := l.Append([]byte("c")); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(len(old)) + chunkSize; fi.Size() != want {
		t.Fatalf("segment is %d bytes after the append, want %d", fi.Size(), want)
	}
	l, recs = reopen(t, l, []byte("s"))
	l.Close()
	if len(recs) != 3 || !bytes.Equal(recs[2], []byte("c")) {
		t.Fatalf("recovered %q, want [a b c]", recs)
	}
}

// TestWriteGrowsSegment: a record that straddles the preallocated end,
// and one larger than a whole chunk, each extend the segment by whole
// chunks with one fsync before they are written, and recover intact.
func TestWriteGrowsSegment(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sizes []int
	}{
		{"straddle", []int{chunkSize - frameHeaderSize - 10, 100}},
		{"larger than a chunk", []int{2*chunkSize + 5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l, err := Create(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			base := l.Stats().Fsyncs
			var want [][]byte
			var end int64
			for i, n := range tc.sizes {
				p := bytes.Repeat([]byte{byte(i + 1)}, n)
				if err := l.Append(p); err != nil {
					t.Fatal(err)
				}
				want = append(want, p)
				end += frameHeaderSize + int64(n)
			}
			fsyncs := l.Stats().Fsyncs - base
			fi, err := os.Stat(filepath.Join(dir, logName(1)))
			if err != nil {
				t.Fatal(err)
			}
			if fi.Size() < end || fi.Size()%chunkSize != 0 || fi.Size()-end >= chunkSize {
				t.Fatalf("segment is %d bytes for records ending at %d, want the next whole chunk", fi.Size(), end)
			}
			// One per Append, one for the extension.
			if want := uint64(len(tc.sizes) + 1); fsyncs != want {
				t.Fatalf("%d fsyncs, want %d", fsyncs, want)
			}
			l, recs := reopen(t, l, nil)
			l.Close()
			if len(recs) != len(want) {
				t.Fatalf("recovered %d records, want %d", len(recs), len(want))
			}
			for i := range want {
				if !bytes.Equal(recs[i], want[i]) {
					t.Fatalf("record %d changed across recovery", i)
				}
			}
		})
	}
}

// TestWriteRefusesEmpty: an empty record's frame would be eight zero
// bytes — the end-of-log marker — so Write refuses it and writes
// nothing.
func TestWriteRefusesEmpty(t *testing.T) {
	l, err := Create(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	before := l.Stats()
	for _, p := range [][]byte{nil, {}} {
		if _, err := l.Write(p); !errors.Is(err, errEmptyRecord) {
			t.Fatalf("Write(%q) = %v, want errEmptyRecord", p, err)
		}
	}
	if after := l.Stats(); after != before {
		t.Fatalf("refused writes moved the log: %+v, was %+v", after, before)
	}
	if err := l.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	l, recs := reopen(t, l, nil)
	l.Close()
	if len(recs) != 1 || !bytes.Equal(recs[0], []byte("x")) {
		t.Fatalf("recovered %q, want [x]", recs)
	}
}

// TestCrashBetweenSnapshotAndSegment: a crash after the new snapshot
// renamed into place but before its segment was created must recover
// the new generation with an empty suffix.
func TestCrashBetweenSnapshotAndSegment(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, []byte("v1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("lost-by-snapshot")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash window: generation 2's snapshot exists, its
	// segment does not, generation 1 not yet deleted.
	if err := os.WriteFile(filepath.Join(dir, snapName(2)), []byte("v2"), 0o644); err != nil {
		t.Fatal(err)
	}

	nl, snap, recs, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer nl.Close()
	if !bytes.Equal(snap, []byte("v2")) || len(recs) != 0 {
		t.Fatalf("recovered snap %q with %d records, want v2 with none", snap, len(recs))
	}
	if nl.Stats().Gen != 2 {
		t.Fatalf("gen = %d, want 2", nl.Stats().Gen)
	}
}

// TestCrashDuringRotation: a crash before the new snapshot is renamed
// into place leaves its temp file and its preallocated segment beside
// the live generation; recovery must ignore both, and the next rotation
// must reuse the segment's name.
func TestCrashDuringRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, []byte("v1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("kept")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapName(2)+".tmp"), []byte("v2"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, logName(2)), make([]byte, chunkSize), 0o644); err != nil {
		t.Fatal(err)
	}

	nl, snap, recs, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap, []byte("v1")) || len(recs) != 1 || nl.Stats().Gen != 1 {
		t.Fatalf("recovered snap %q with %d records in gen %d, want v1 with 1 in gen 1", snap, len(recs), nl.Stats().Gen)
	}
	if err := nl.Rotate([]byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := nl.Append([]byte("after")); err != nil {
		t.Fatal(err)
	}
	nl, recs = reopen(t, nl, []byte("v2"))
	nl.Close()
	if len(recs) != 1 || !bytes.Equal(recs[0], []byte("after")) {
		t.Fatalf("recovered %q after rotation, want [after]", recs)
	}
}

// TestWriteSyncGroupCommit exercises the group-commit split: Write
// frames records without making them durable, one Sync covers every
// write that preceded it with a single fsync, and both Rotate and the
// final sync in Close advance the durability watermark past all
// writes.
func TestWriteSyncGroupCommit(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, []byte("snap"))
	if err != nil {
		t.Fatal(err)
	}
	baseFsyncs := l.Stats().Fsyncs

	var want [][]byte
	var lsns []uint64
	for i := 0; i < 6; i++ {
		p := []byte(fmt.Sprintf("gc-%d", i))
		lsn, err := l.Write(p)
		if err != nil {
			t.Fatal(err)
		}
		if wantLSN := uint64(i + 1); lsn != wantLSN {
			t.Fatalf("write %d returned LSN %d, want %d", i, lsn, wantLSN)
		}
		want = append(want, p)
		lsns = append(lsns, lsn)
	}
	if got := l.Synced(); got != 0 {
		t.Fatalf("Synced() = %d before any Sync, want 0", got)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := l.Synced(); got != lsns[len(lsns)-1] {
		t.Fatalf("Synced() = %d after Sync, want %d", got, lsns[len(lsns)-1])
	}
	if got := l.Stats().Fsyncs - baseFsyncs; got != 1 {
		t.Fatalf("%d fsyncs for 6 writes + 1 Sync, want exactly 1", got)
	}
	// A Sync with nothing new to cover is free.
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().Fsyncs - baseFsyncs; got != 1 {
		t.Fatalf("redundant Sync paid an fsync (%d total)", got)
	}

	// Rotation supersedes Sync: unsynced writes are covered by the new
	// snapshot and the watermark jumps without an explicit flush.
	if _, err := l.Write([]byte("unsynced")); err != nil {
		t.Fatal(err)
	}
	if err := l.Rotate([]byte("snap2")); err != nil {
		t.Fatal(err)
	}
	if got := l.Synced(); got != 7 {
		t.Fatalf("Synced() = %d after rotation, want 7", got)
	}

	if _, err := l.Write([]byte("after")); err != nil {
		t.Fatal(err)
	}
	l, recs := reopen(t, l, []byte("snap2")) // Close's final sync covers the tail
	defer l.Close()
	if len(recs) != 1 || !bytes.Equal(recs[0], []byte("after")) {
		t.Fatalf("recovered records = %q, want [after]", recs)
	}
}

// TestSyncConcurrentWithWrite drives one writer (owner-lock-serialized
// Writes) against free-running Sync calls from other goroutines; under
// the race detector this is the proof that the split locking scheme —
// writes under the owner's lock, flushes under syncMu — is sound, and
// afterwards every record must be recoverable.
func TestSyncConcurrentWithWrite(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, []byte("s"))
	if err != nil {
		t.Fatal(err)
	}
	const records = 200
	var mu sync.Mutex // the owner's lock, serializing Write
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < records/4; i++ {
				mu.Lock()
				_, werr := l.Write([]byte(fmt.Sprintf("w%d-%d", g, i)))
				mu.Unlock()
				if werr != nil {
					t.Error(werr)
					return
				}
				if err := l.Sync(); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := l.Synced(); got != records {
		t.Fatalf("Synced() = %d, want %d", got, records)
	}
	l, recs := reopen(t, l, []byte("s"))
	defer l.Close()
	if len(recs) != records {
		t.Fatalf("recovered %d records, want %d", len(recs), records)
	}
}

// BenchmarkAppend times one durable record — Write then Sync — of the
// http_durable workload's mean size (1142 bytes per record, frame
// header included).
func BenchmarkAppend(b *testing.B) {
	l, err := Create(b.TempDir(), nil)
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	rec := bytes.Repeat([]byte{0x5a}, 1142-frameHeaderSize)
	b.SetBytes(int64(len(rec)))
	for b.Loop() {
		if err := l.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
}
