package trace

// The on-disk format. One trace file is:
//
//	magic   "RDTR"                       4 bytes
//	version u8                           currently 1
//	metaLen u32 LE                       length of the meta JSON block
//	meta    JSON(Meta)                   forward-extensible run description
//	count   u64 LE                       number of event records
//	events  count × 45-byte records      fixed little-endian layout below
//	crc     u32 LE                       CRC-32 (IEEE) of everything above
//
// Each record: seq u64, time i64, kind u8, proc i32, job i32, phase i32,
// lo u32, hi u32, arg i64 — 45 bytes, little-endian throughout. The JSON
// meta block absorbs descriptive growth without a version bump; the
// version byte only changes when the record layout itself does, and the
// reader rejects versions it does not know.

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

const (
	fileMagic = "RDTR"
	// FormatVersion is the record-layout version Write produces and Read
	// accepts.
	FormatVersion = 1
	recordSize    = 45
)

func putEvent(b []byte, e *Event) {
	le := binary.LittleEndian
	le.PutUint64(b[0:], e.Seq)
	le.PutUint64(b[8:], uint64(e.Time))
	b[16] = byte(e.Kind)
	le.PutUint32(b[17:], uint32(e.Proc))
	le.PutUint32(b[21:], uint32(e.Job))
	le.PutUint32(b[25:], uint32(e.Phase))
	le.PutUint32(b[29:], e.Lo)
	le.PutUint32(b[33:], e.Hi)
	le.PutUint64(b[37:], uint64(e.Arg))
}

func getEvent(b []byte, e *Event) {
	le := binary.LittleEndian
	e.Seq = le.Uint64(b[0:])
	e.Time = int64(le.Uint64(b[8:]))
	e.Kind = Kind(b[16])
	e.Proc = int32(le.Uint32(b[17:]))
	e.Job = int32(le.Uint32(b[21:]))
	e.Phase = int32(le.Uint32(b[25:]))
	e.Lo = le.Uint32(b[29:])
	e.Hi = le.Uint32(b[33:])
	e.Arg = int64(le.Uint64(b[37:]))
}

// encodeMeta renders t's meta block as the file stores it.
func encodeMeta(t *Trace) ([]byte, error) {
	meta := t.Meta
	meta.Version = FormatVersion
	mj, err := json.Marshal(&meta)
	if err != nil {
		return nil, fmt.Errorf("trace: encoding meta: %w", err)
	}
	return mj, nil
}

// Size reports how many bytes Write produces for t, so a server can
// announce the length before the first byte.
func Size(t *Trace) (int64, error) {
	mj, err := encodeMeta(t)
	if err != nil {
		return 0, err
	}
	return int64(len(fileMagic) + 1 + 4 + len(mj) + 8 + len(t.Events)*recordSize + 4), nil
}

// Write serializes t to w in the versioned binary format.
func Write(w io.Writer, t *Trace) error {
	crc := crc32.NewIEEE()
	bw := bufio.NewWriter(io.MultiWriter(w, crc))

	mj, err := encodeMeta(t)
	if err != nil {
		return err
	}

	if _, err := bw.WriteString(fileMagic); err != nil {
		return err
	}
	if err := bw.WriteByte(FormatVersion); err != nil {
		return err
	}
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(len(mj)))
	if _, err := bw.Write(u32[:]); err != nil {
		return err
	}
	if _, err := bw.Write(mj); err != nil {
		return err
	}
	var u64 [8]byte
	binary.LittleEndian.PutUint64(u64[:], uint64(len(t.Events)))
	if _, err := bw.Write(u64[:]); err != nil {
		return err
	}
	var rec [recordSize]byte
	for i := range t.Events {
		putEvent(rec[:], &t.Events[i])
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
	}
	// The trailer CRC covers everything written so far; flush through the
	// MultiWriter first so the hash has seen it all.
	if err := bw.Flush(); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(u32[:], crc.Sum32())
	_, err = w.Write(u32[:])
	return err
}

// Read parses one trace from r, verifying the version and the trailer
// checksum. The stream is slurped whole — a trace is bounded by its
// event count (45 bytes each), and whole-buffer parsing keeps the
// checksum honest without double-buffering games.
func Read(r io.Reader) (*Trace, error) {
	buf, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace: reading stream: %w", err)
	}
	minHeader := len(fileMagic) + 1 + 4
	if len(buf) < minHeader+8+4 {
		return nil, fmt.Errorf("trace: file too short (%d bytes)", len(buf))
	}
	if string(buf[:4]) != fileMagic {
		return nil, fmt.Errorf("trace: bad magic %q (not a trace file)", buf[:4])
	}
	if v := buf[4]; v != FormatVersion {
		return nil, fmt.Errorf("trace: unsupported format version %d (reader knows %d)", v, FormatVersion)
	}

	body, trailer := buf[:len(buf)-4], buf[len(buf)-4:]
	want := crc32.ChecksumIEEE(body)
	if got := binary.LittleEndian.Uint32(trailer); got != want {
		return nil, fmt.Errorf("trace: checksum mismatch (file %08x, computed %08x): truncated or corrupt", got, want)
	}

	off := minHeader
	metaLen := int(binary.LittleEndian.Uint32(buf[5:]))
	if metaLen < 0 || off+metaLen+8 > len(body) {
		return nil, fmt.Errorf("trace: meta length %d exceeds file", metaLen)
	}
	t := &Trace{}
	if err := json.Unmarshal(body[off:off+metaLen], &t.Meta); err != nil {
		return nil, fmt.Errorf("trace: decoding meta: %w", err)
	}
	off += metaLen

	count := binary.LittleEndian.Uint64(body[off:])
	off += 8
	if int64(count) < 0 || int(count)*recordSize != len(body)-off {
		return nil, fmt.Errorf("trace: event count %d does not match %d payload bytes",
			count, len(body)-off)
	}
	t.Events = make([]Event, count)
	for i := range t.Events {
		getEvent(body[off:], &t.Events[i])
		off += recordSize
	}
	return t, nil
}

// WriteFile writes t to path (creating or truncating it).
func WriteFile(path string, t *Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, t); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile parses the trace stored at path.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}
