package journal

// The CRC-framed line codec behind the journal, factored out so other
// append-only stores (internal/lake) reuse the exact crash-safety
// story instead of re-deriving it: one checksummed record per line,
// fsync before acknowledge, torn tails truncated back to the last
// clean boundary on open.
//
// Wire format, per frame:
//
//	%08x SP payload LF
//
// where the hex prefix is the IEEE CRC32 of the payload. Payloads must
// never contain a raw newline (JSON escaping guarantees this for both
// users), so line framing stays unambiguous.

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// EncodeFrame renders one payload as its checksummed frame line.
func EncodeFrame(payload []byte) []byte {
	return fmt.Appendf(make([]byte, 0, len(payload)+10),
		"%08x %s\n", crc32.ChecksumIEEE(payload), payload)
}

// DecodeFrame parses one full frame line, returning the payload (a
// sub-slice of line — copy it to retain) and whether the frame was
// checksum-clean and well-formed.
func DecodeFrame(line []byte) ([]byte, bool) {
	// 8 hex digits + space + at least "{}" + newline.
	if len(line) < 12 || line[8] != ' ' || line[len(line)-1] != '\n' {
		return nil, false
	}
	var sum uint32
	if _, err := fmt.Sscanf(string(line[:8]), "%08x", &sum); err != nil {
		return nil, false
	}
	payload := line[9 : len(line)-1]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, false
	}
	return payload, true
}

// ScanFrames walks data frame by frame, calling accept with each clean
// payload. accept returning false marks the frame corrupt at the record
// level (unparseable payload, future version): the scan truncates there
// exactly as it would for a checksum failure. ScanFrames returns the
// byte offset of the last clean frame boundary and how many trailing
// lines (or partial lines) were discarded. It never fails: appends are
// strictly ordered, so nothing after a bad frame can have been
// acknowledged on top of durable state.
func ScanFrames(data []byte, accept func(payload []byte) bool) (good int, dropped int) {
	off := 0
	for off < len(data) {
		nl := -1
		for i := off; i < len(data); i++ {
			if data[i] == '\n' {
				nl = i
				break
			}
		}
		if nl < 0 {
			// Torn tail: the final append never finished its line.
			return off, 1
		}
		payload, ok := DecodeFrame(data[off : nl+1])
		if ok {
			ok = accept(payload)
		}
		if !ok {
			// Corrupt frame: drop it and every line after it.
			return off, countLines(data[off:])
		}
		off = nl + 1
	}
	return off, 0
}

// countLines counts newline-terminated lines plus a trailing partial.
func countLines(data []byte) int {
	n := 0
	for _, b := range data {
		if b == '\n' {
			n++
		}
	}
	if len(data) > 0 && data[len(data)-1] != '\n' {
		n++
	}
	return n
}

var errClosed = errors.New("closed")

// FrameFile is the append handle over one frame log: every Append is
// framed, written, and fsync'd before it returns, so a nil error means
// the record is durable. Safe for concurrent use.
type FrameFile struct {
	mu       sync.Mutex
	f        *os.File
	path     string
	appended int
	bytes    int64
}

// OpenFrameFile opens (creating if necessary) dir/name, replays the
// existing frames through accept (see ScanFrames), truncates any torn
// tail back to the last clean frame boundary, fsyncs the directory so
// the file itself survives a crash that follows its creation, and
// returns the append handle positioned at the clean prefix. bytes is
// the clean-prefix size and dropped the discarded trailing lines.
func OpenFrameFile(dir, name string, accept func(payload []byte) bool) (ff *FrameFile, bytes int64, dropped int, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, 0, err
	}
	path := filepath.Join(dir, name)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, 0, 0, err
	}
	data, err := readSized(f)
	if err != nil {
		f.Close()
		return nil, 0, 0, fmt.Errorf("read: %w", err)
	}
	good, dropped := ScanFrames(data, accept)
	if good < len(data) {
		if err := f.Truncate(int64(good)); err != nil {
			f.Close()
			return nil, 0, 0, fmt.Errorf("truncate torn tail: %w", err)
		}
	}
	if _, err := f.Seek(int64(good), io.SeekStart); err != nil {
		f.Close()
		return nil, 0, 0, err
	}
	if d, derr := os.Open(dir); derr == nil {
		_ = d.Sync()
		d.Close()
	}
	return &FrameFile{f: f, path: path}, int64(good), dropped, nil
}

// readSized reads f to EOF into one buffer sized from Stat, instead of
// letting io.ReadAll grow one by doubling (about three times the file
// allocated on a large log). The MinRead headroom lets the final EOF
// read land without a regrow; a file that grew since the Stat still
// reads in full.
func readSized(f *os.File) ([]byte, error) {
	size := 0
	if fi, err := f.Stat(); err == nil {
		size = int(fi.Size())
	}
	buf := bytes.NewBuffer(make([]byte, 0, size+bytes.MinRead))
	_, err := buf.ReadFrom(f)
	return buf.Bytes(), err
}

// Append frames, writes, and fsyncs one payload, returning the bytes
// written. When Append returns nil the frame is durable.
func (ff *FrameFile) Append(payload []byte) (int, error) {
	line := EncodeFrame(payload)
	ff.mu.Lock()
	defer ff.mu.Unlock()
	if ff.f == nil {
		return 0, errClosed
	}
	if _, err := ff.f.Write(line); err != nil {
		return 0, fmt.Errorf("append: %w", err)
	}
	if err := ff.f.Sync(); err != nil {
		return 0, fmt.Errorf("fsync: %w", err)
	}
	ff.appended++
	ff.bytes += int64(len(line))
	return len(line), nil
}

// Stats reports frames and bytes appended through this handle.
func (ff *FrameFile) Stats() (frames int, bytes int64) {
	ff.mu.Lock()
	defer ff.mu.Unlock()
	return ff.appended, ff.bytes
}

// Path returns the frame log's file path.
func (ff *FrameFile) Path() string { return ff.path }

// Close closes the append handle. Every successfully Append'ed frame
// is already fsync'd, so Close-vs-SIGKILL makes no durability
// difference.
func (ff *FrameFile) Close() error {
	ff.mu.Lock()
	defer ff.mu.Unlock()
	if ff.f == nil {
		return nil
	}
	err := ff.f.Close()
	ff.f = nil
	return err
}
