// Package wal is the durable storage engine of the control plane: an
// append-only, checksummed, length-prefixed record log paired with
// generation-numbered snapshot files. The contents are opaque bytes —
// package guarantee encodes lifecycle events and ledger snapshots into
// them — so the storage layer stays free of admission-control types.
//
// Layout: a ledger directory holds exactly one live generation g,
// written as snap-<g>.snap (the state at the moment the generation
// began) plus wal-<g>.log (every record appended since). A snapshot
// rotation writes snap-<g+1>.snap via temp-file rename — atomic on
// POSIX — so a crash at any instant leaves either generation g or g+1
// fully intact; the stale generation's files are deleted once the new
// snapshot is durable. Appends are fsynced before they are
// acknowledged: an admission the control plane confirmed is on disk.
//
// Record framing is [u32 length][u32 CRC-32C][payload], little-endian,
// frames back to back from offset 0. A segment is preallocated: the
// bytes past the last record are zeros, written and fsynced a chunk at
// a time before any record lands in them, so a record's fsync flushes
// data inside an extent that is already allocated and durable instead
// of also committing the block allocation and the new file size. A
// zero length therefore ends the log — an empty record would be eight
// zero bytes, so Write refuses one.
//
// Recovery reads records until the end of the file, a zero length, or
// the first frame whose length or checksum does not hold, and never
// panics: a torn final write loses only the unacknowledged record it
// belongs to. It then overwrites any non-zero bytes past the last valid
// record with zeros, so a record appended later can never be followed
// by stale bytes a second recovery would misread as frames. A segment
// written before preallocation (no zeros, ending at end of file) reads
// the same and grows on its next append.
package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// frameHeaderSize is the per-record overhead: u32 length + u32 CRC-32C.
const frameHeaderSize = 8

// chunkSize is how far a segment is zero-filled ahead of its records at
// a time. Larger chunks mean fewer extensions (each one an fsync on the
// appending operation) but a longer fill on every snapshot rotation,
// which starts its segment with one chunk.
const chunkSize = 256 << 10

// zeroChunk is the source of every zero-fill; it is never written.
var zeroChunk [chunkSize]byte

// castagnoli is the CRC-32C table (the iSCSI polynomial, hardware-
// accelerated on current CPUs).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrExists reports a Create into a directory that already holds a
// ledger.
var ErrExists = errors.New("wal: ledger already exists")

// ErrNoLedger reports an Open of a directory with no ledger in it.
var ErrNoLedger = errors.New("wal: no ledger found")

// errClosed refuses a flush after Close or after a failed fsync.
var errClosed = errors.New("wal: log closed")

// errEmptyRecord refuses a Write of an empty payload, whose frame would
// be indistinguishable from the zeros that end the log.
var errEmptyRecord = errors.New("wal: empty record")

// Stats is a point-in-time snapshot of the log's storage state, the
// payload of the serving daemon's /v1/wal endpoint.
type Stats struct {
	// Gen is the live generation number.
	Gen uint64 `json:"gen"`
	// Records is the number of records appended since the generation
	// began — the replay work a crash right now would cost.
	Records uint64 `json:"records"`
	// Offset is the logical end of the live segment's records in bytes:
	// where the next record will be written. The file itself is larger,
	// by the zero-filled room preallocated past it.
	Offset int64 `json:"offset_bytes"`
	// Fsyncs counts fsync calls issued since this process opened the
	// ledger.
	Fsyncs uint64 `json:"fsyncs"`
	// SnapshotBytes is the size of the generation's snapshot file.
	SnapshotBytes int64 `json:"snapshot_bytes"`
	// SnapshotUnix is the modification time of the generation's snapshot
	// file, in Unix seconds.
	SnapshotUnix int64 `json:"snapshot_unix"`
}

// Log is an open ledger directory. Write, Rotate, and the accessors
// are not safe for concurrent use — the owning layer serializes them
// behind its own lock — but Sync and Synced may run concurrently with
// Write under a *different* lock: that split is what lets a committer
// group many writers' records under one fsync (see Write and Sync).
type Log struct {
	dir    string
	gen    uint64
	f      *os.File
	offset int64  // logical end of the records
	alloc  int64  // segment size: offset plus the zero-filled room past it
	frame  []byte // Write's scratch: one record's header and payload

	records  uint64
	fsyncs   atomic.Uint64
	snapSize int64
	snapTime time.Time

	// Group-commit watermarks. written is the LSN of the last record
	// handed to the OS; synced is the highest LSN known durable — a
	// successful Sync covers every record written before it began, and
	// a Rotate covers everything (the new snapshot subsumes the log).
	// LSNs are monotone across rotations.
	written atomic.Uint64
	synced  atomic.Uint64
	// syncMu serializes Sync bodies against each other, against grow,
	// and against the file swap in Rotate and Close, so a flush never
	// touches a segment mid-replacement. failed latches after an fsync
	// error: a later fsync on the same descriptor can report success
	// after the kernel dropped the dirty pages, so no claim of
	// durability is trusted once one flush has failed.
	syncMu sync.Mutex
	failed bool
}

func snapName(gen uint64) string { return fmt.Sprintf("snap-%016d.snap", gen) }
func logName(gen uint64) string  { return fmt.Sprintf("wal-%016d.log", gen) }

// HasLedger reports whether dir holds a ledger (at least one snapshot
// generation).
func HasLedger(dir string) bool {
	gens, _ := listGens(dir)
	return len(gens) > 0
}

// listGens returns the snapshot generations present in dir, ascending.
func listGens(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var gens []uint64
	for _, e := range ents {
		var g uint64
		// Sscanf ignores what follows the pattern: the name must match
		// exactly, or an in-flight snap-<g>.snap.tmp would pass for
		// generation g.
		if _, err := fmt.Sscanf(e.Name(), "snap-%d.snap", &g); err == nil && e.Name() == snapName(g) {
			gens = append(gens, g)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens, nil
}

// Create initializes a fresh ledger in dir (created if needed) with the
// given initial snapshot as generation 1. It fails with ErrExists if
// dir already holds a ledger.
func Create(dir string, snapshot []byte) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if HasLedger(dir) {
		return nil, fmt.Errorf("%w in %s", ErrExists, dir)
	}
	l := &Log{dir: dir}
	if err := l.installGen(1, snapshot); err != nil {
		return nil, err
	}
	return l, nil
}

// Open recovers the ledger in dir: it loads the newest generation's
// snapshot and every valid record of its log segment, and zeroes
// whatever non-zero bytes follow the last valid record (a torn tail
// from a mid-write crash). The returned records are the replay suffix
// in append order; they share one buffer.
func Open(dir string) (l *Log, snapshot []byte, records [][]byte, err error) {
	gens, err := listGens(dir)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("wal: %w", err)
	}
	if len(gens) == 0 {
		return nil, nil, nil, fmt.Errorf("%w in %s", ErrNoLedger, dir)
	}
	gen := gens[len(gens)-1]
	snapshot, err = os.ReadFile(filepath.Join(dir, snapName(gen)))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("wal: reading snapshot: %w", err)
	}
	l = &Log{dir: dir, gen: gen}
	if err := l.statSnapshot(); err != nil {
		return nil, nil, nil, err
	}

	path := filepath.Join(dir, logName(gen))
	// A crash between snapshot rename and segment creation leaves a
	// generation with no log file; that is an empty suffix.
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("wal: opening segment: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, nil, fmt.Errorf("wal: %w", err)
	}
	data := make([]byte, fi.Size())
	if _, err := io.ReadFull(f, data); err != nil {
		f.Close()
		return nil, nil, nil, fmt.Errorf("wal: reading segment: %w", err)
	}
	records, valid := scan(data)
	l.f, l.offset, l.alloc, l.records = f, int64(valid), int64(len(data)), uint64(len(records))
	if residue := len(bytes.TrimRight(data[valid:], "\x00")); residue > 0 {
		if err := zeroFill(f, l.offset, l.offset+int64(residue)); err != nil {
			f.Close()
			return nil, nil, nil, fmt.Errorf("wal: zeroing torn tail: %w", err)
		}
		l.fsyncs.Add(1)
	}
	return l, snapshot, records, nil
}

// scan parses frames from the start of data until its end, a zero
// length, or the first frame that is torn or fails its checksum,
// returning the valid payloads (sub-slices of data) and the offset they
// end at. Corruption is not an error — it marks the end of the durable
// prefix.
func scan(data []byte) (records [][]byte, valid int) {
	for len(data)-valid >= frameHeaderSize {
		n := binary.LittleEndian.Uint32(data[valid:])
		sum := binary.LittleEndian.Uint32(data[valid+4:])
		start := valid + frameHeaderSize
		if n == 0 || uint64(n) > uint64(len(data)-start) {
			break // end of the log, garbled length, or torn payload
		}
		end := start + int(n)
		payload := data[start:end:end]
		if crc32.Checksum(payload, castagnoli) != sum {
			break // corrupted record
		}
		records = append(records, payload)
		valid = end
	}
	return records, valid
}

// Append frames, writes, and fsyncs one record. On return the record is
// durable; any error leaves the log unusable for further appends (the
// caller is expected to wedge itself — a control plane must not
// acknowledge admissions it cannot persist).
func (l *Log) Append(payload []byte) error {
	if _, err := l.Write(payload); err != nil {
		return err
	}
	return l.Sync()
}

// Write frames and writes one record to the OS without making it
// durable, returning its LSN. The record is on disk only after a Sync
// (or Rotate) whose return happens after this Write returns — callers
// must not acknowledge it before then. A record that would cross the
// segment's preallocated end first extends it (see grow). The payload
// must not be empty. Serialized by the owner's lock.
func (l *Log) Write(payload []byte) (uint64, error) {
	if len(payload) == 0 {
		return 0, errEmptyRecord
	}
	end := l.offset + frameHeaderSize + int64(len(payload))
	if end > l.alloc {
		if err := l.grow(end); err != nil {
			return 0, err
		}
	}
	l.frame = binary.LittleEndian.AppendUint32(l.frame[:0], uint32(len(payload)))
	l.frame = binary.LittleEndian.AppendUint32(l.frame, crc32.Checksum(payload, castagnoli))
	l.frame = append(l.frame, payload...)
	if _, err := l.f.WriteAt(l.frame, l.offset); err != nil {
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	l.offset = end
	l.records++
	return l.written.Add(1), nil
}

// grow zero-fills the segment from its end by whole chunks until it
// reaches at least end, and fsyncs it, so the records that land there
// flush only their own data. A failure latches like a failed Sync.
// Called by Write under the owner's lock.
func (l *Log) grow(end int64) error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if l.f == nil || l.failed {
		return errClosed
	}
	alloc := l.alloc
	for alloc < end {
		alloc += chunkSize
	}
	if err := zeroFill(l.f, l.alloc, alloc); err != nil {
		l.failed = true
		return fmt.Errorf("wal: extending segment: %w", err)
	}
	l.fsyncs.Add(1)
	l.alloc = alloc
	return nil
}

// zeroFill writes zeros over [from, to) of f and fsyncs it.
func zeroFill(f *os.File, from, to int64) error {
	for from < to {
		n := min(to-from, chunkSize)
		if _, err := f.WriteAt(zeroChunk[:n], from); err != nil {
			return err
		}
		from += n
	}
	return f.Sync()
}

// Sync makes every record whose Write returned before this call began
// durable with one fsync, then advances the synced watermark. It may
// run concurrently with Write: the watermark only advances to the
// writes known to precede the flush, so a record racing in during the
// fsync is never claimed durable early. Returns immediately when a
// concurrent Sync or Rotate already covered everything written.
func (l *Log) Sync() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	target := l.written.Load()
	if l.synced.Load() >= target {
		return nil
	}
	if l.f == nil || l.failed {
		return errClosed
	}
	if err := l.f.Sync(); err != nil {
		l.failed = true
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.fsyncs.Add(1)
	l.synced.Store(target)
	return nil
}

// Synced returns the highest LSN known durable.
func (l *Log) Synced() uint64 { return l.synced.Load() }

// Rotate makes snapshot the new generation and truncates the log: the
// snapshot is written to a temp file, fsynced, and renamed into place
// (atomic), a fresh empty segment is started, and the previous
// generation's files are deleted. A crash at any point leaves one fully
// intact generation on disk. Rotation supersedes Sync: the durable
// snapshot subsumes every record written so far, so the synced
// watermark jumps to the current write position and pending group
// commits complete without an fsync of their own.
func (l *Log) Rotate(snapshot []byte) error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	old := l.gen
	var oldF *os.File
	l.f, oldF = nil, l.f
	if err := l.installGen(old+1, snapshot); err != nil {
		l.f = oldF // rotation failed; the old segment is still good
		return err
	}
	l.synced.Store(l.written.Load())
	if oldF != nil {
		oldF.Close()
	}
	os.Remove(filepath.Join(l.dir, logName(old)))
	os.Remove(filepath.Join(l.dir, snapName(old)))
	return nil
}

// installGen writes gen's snapshot durably and opens its fresh empty
// segment, preallocated by one chunk, leaving l pointing at the new
// generation. The segment is created before the snapshot is renamed
// into place, so one directory sync makes both names durable: a crash
// before the rename leaves generation gen-1 live beside a stray
// zero-filled segment, which the next rotation truncates; a crash after
// it whose segment name did not persist recovers an empty suffix.
func (l *Log) installGen(gen uint64, snapshot []byte) error {
	final := filepath.Join(l.dir, snapName(gen))
	tmp := final + ".tmp"
	if err := writeDurable(tmp, snapshot); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(l.dir, logName(gen)), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: creating segment: %w", err)
	}
	if err := zeroFill(f, 0, chunkSize); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: preallocating segment: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: installing snapshot: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.gen, l.f, l.offset, l.alloc, l.records = gen, f, 0, chunkSize, 0
	l.fsyncs.Add(3) // snapshot, segment, directory
	return l.statSnapshot()
}

// statSnapshot caches the live generation's snapshot size and mtime for
// Stats.
func (l *Log) statSnapshot() error {
	fi, err := os.Stat(filepath.Join(l.dir, snapName(l.gen)))
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.snapSize, l.snapTime = fi.Size(), fi.ModTime()
	return nil
}

// writeDurable writes path with the given contents and fsyncs it.
func writeDurable(path string, b []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	return f.Close()
}

// syncDir fsyncs a directory so renames and creations in it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	err = d.Sync()
	d.Close()
	if err != nil {
		return fmt.Errorf("wal: syncing directory: %w", err)
	}
	return nil
}

// Dir returns the ledger directory.
func (l *Log) Dir() string { return l.dir }

// Stats returns the log's storage statistics.
func (l *Log) Stats() Stats {
	return Stats{
		Gen:           l.gen,
		Records:       l.records,
		Offset:        l.offset,
		Fsyncs:        l.fsyncs.Load(),
		SnapshotBytes: l.snapSize,
		SnapshotUnix:  l.snapTime.Unix(),
	}
}

// Close syncs and closes the live segment. The log must not be used
// afterwards. The final sync advances the watermark, so group commits
// in flight at close observe their records durable.
func (l *Log) Close() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if l.f == nil {
		return nil
	}
	target := l.written.Load()
	err := l.f.Sync()
	if err == nil && !l.failed {
		l.synced.Store(target)
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	if err != nil {
		return fmt.Errorf("wal: close: %w", err)
	}
	return nil
}
