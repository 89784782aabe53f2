package cluster

import (
	"bytes"
	"net/http"
	"testing"
)

// sinkWriter is an allocation-free http.ResponseWriter and http.Flusher
// that counts what the proxy hop writes and flushes.
type sinkWriter struct {
	hdr             http.Header
	written, chunks int
}

func (w *sinkWriter) Header() http.Header         { return w.hdr }
func (w *sinkWriter) WriteHeader(int)             {}
func (w *sinkWriter) Write(p []byte) (int, error) { w.written += len(p); return len(p), nil }
func (w *sinkWriter) Flush()                      { w.chunks++ }

// TestFlushCopyReusesBuffer pins the proxy hop's copy stage to zero
// allocations per proxied response once its chunk buffer pool is warm.
func TestFlushCopyReusesBuffer(t *testing.T) {
	body := bytes.Repeat([]byte(`{"seq":1,"task":"web"}`+"\n"), 64)
	src := bytes.NewReader(body)
	w := &sinkWriter{hdr: http.Header{}}
	allocs := testing.AllocsPerRun(100, func() {
		src.Reset(body)
		flushCopy(w, src)
	})
	if allocs > 0 {
		t.Fatalf("flushCopy allocates %.1f times per response, want 0", allocs)
	}
	if w.written != 101*len(body) || w.chunks == 0 {
		t.Fatalf("copied %d bytes in %d flushed chunks, want %d bytes", w.written, w.chunks, 101*len(body))
	}
}
