package journal

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestOpenFrameFileSizedRead: opening a ~1 MB frame log reads it into
// one buffer sized from Stat, so the whole open allocates less than
// 1.5x the file (growing the buffer by doubling allocates about three
// times it). Torn-tail truncation is unchanged. Not parallel: it reads
// the process-wide allocation counter.
func TestOpenFrameFileSizedRead(t *testing.T) {
	dir := t.TempDir()
	payload := []byte(`{"pad":"` + string(bytes.Repeat([]byte("x"), 1000)) + `"}`)
	var data []byte
	for len(data) < 1<<20 {
		data = append(data, EncodeFrame(payload)...)
	}
	clean := len(data)
	data = append(data, `0badf00d {"pad":"torn`...)
	if err := os.WriteFile(filepath.Join(dir, "log"), data, 0o644); err != nil {
		t.Fatal(err)
	}

	frames := 0
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	ff, good, dropped, err := OpenFrameFile(dir, "log", func([]byte) bool { frames++; return true })
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	defer ff.Close()
	if good != int64(clean) || dropped != 1 || frames != clean/len(EncodeFrame(payload)) {
		t.Fatalf("OpenFrameFile = %d clean bytes, %d dropped, %d frames; want %d, 1, %d",
			good, dropped, frames, clean, clean/len(EncodeFrame(payload)))
	}
	fi, err := os.Stat(ff.Path())
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != int64(clean) {
		t.Fatalf("log is %d bytes after open, want the torn tail truncated to %d", fi.Size(), clean)
	}
	if alloc := m1.TotalAlloc - m0.TotalAlloc; float64(alloc) > 1.5*float64(len(data)) {
		t.Fatalf("opening a %d-byte log allocated %d bytes, want under 1.5x", len(data), alloc)
	}
}
