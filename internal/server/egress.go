package server

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"
	"unicode/utf8"

	"desyncpfair/internal/online"
)

// This file is the egress side of the encode-once plane. Records are
// serialized to NDJSON wire bytes exactly once, by the goroutine that
// owns them — the tenant loop for dispatch events (Tenant.record, once a
// follower has attached; FramesSince encodes the rest on demand), the
// trace ring for trace events (obs.Ring.FramesSince), the WAL appender
// for replication frames (wal.Reader.NextRaw ships the on-disk payload)
// — and every subscriber writes the cached frames by reference. The
// frameWriter below batches contiguous frames into one vectored
// net.Buffers write per wakeup with a reused backing slice, flushes once
// per batch, and bounds how long any write may block on a wedged client.
//
// Slow-consumer policy: replication followers are never evicted (the WAL
// reader paces them against the durable horizon and the log is on disk
// anyway), but dispatch-stream followers hold a position in the in-memory
// frame cache, so a follower that falls more than the lag bound behind is
// cut loose with an in-band StreamGone control line instead of pinning
// the process. Fully-wedged clients — ones that stop reading entirely —
// die on the per-write stall deadline instead.

const (
	// DefaultStreamMaxLag is how many records a following dispatch stream
	// may lag behind the log tip before it is evicted with a 410 control
	// line. SetStreamPolicy / Options.StreamMaxLag override it.
	DefaultStreamMaxLag = 65536
	// DefaultStreamStall bounds how long one streamed write may block on
	// an unresponsive client before the connection is severed.
	DefaultStreamStall = 30 * time.Second
	// maxStreamBatch caps the frames per vectored write so lag checks and
	// deadline re-arms happen at a bounded granularity.
	maxStreamBatch = 256
)

// StreamGone is the in-band control line a read stream receives instead
// of an event when the server evicts it for lagging past the stream
// policy's bound. Events never carry an "error" key, so clients detect it
// unambiguously; ResumeFrom is the seq to reconnect with (?from=N).
type StreamGone struct {
	Error      string `json:"error"`
	Status     int    `json:"status"`
	ResumeFrom int64  `json:"resumeFrom"`
}

// appendDispatchJSON appends decision seq of a history — record r of the
// task named task — as the JSON object json.Marshal produces for its
// DispatchEvent, byte for byte, without building the event or its
// strings. Byte identity with Marshal is what lets the frame cache, the
// on-demand encoder and the checkpoint log all stand in for it.
func appendDispatchJSON(b []byte, seq int64, task string, r *online.Record) []byte {
	b = append(b, `{"seq":`...)
	b = strconv.AppendInt(b, seq, 10)
	b = append(b, `,"task":`...)
	b = appendJSONString(b, task)
	b = append(b, `,"index":`...)
	b = strconv.AppendInt(b, r.Index, 10)
	b = append(b, `,"proc":`...)
	b = strconv.AppendInt(b, int64(r.Proc), 10)
	b = append(b, `,"start":"`...)
	b = r.Start.Append(b)
	b = append(b, `","finish":"`...)
	b = r.Finish.Append(b)
	b = append(b, `","deadline":`...)
	b = strconv.AppendInt(b, r.Deadline, 10)
	b = append(b, `,"tardiness":"`...)
	b = r.Tardiness().Append(b)
	return append(b, `"}`...)
}

// appendDispatchFrame appends the NDJSON frame of a decision: its JSON
// object plus the newline a json.Encoder writes.
func appendDispatchFrame(b []byte, seq int64, task string, r *online.Record) []byte {
	return append(appendDispatchJSON(b, seq, task, r), '\n')
}

// dispatchFrame encodes one decision's frame into its own buffer, sized so
// a typical frame takes one allocation.
func dispatchFrame(seq int64, task string, r *online.Record) []byte {
	return appendDispatchFrame(make([]byte, 0, 128+len(task)), seq, task, r)
}

// appendJSONString appends s as json.Marshal quotes it. Names made of
// printable ASCII that Marshal leaves alone are copied directly; anything
// else (quotes, backslashes, HTML-escaped <>&, control bytes, non-ASCII)
// goes through Marshal itself.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// frameWriter writes cached NDJSON frames to one streaming response. It
// reuses a net.Buffers backing slice across batches (zero allocation per
// wakeup once warm) and arms a write deadline around every batch so a
// wedged client can only stall its own connection for stall, never the
// handler forever. A deadline that the connection does not support
// (httptest recorders) is silently skipped.
type frameWriter struct {
	w     http.ResponseWriter
	rc    *http.ResponseController
	fl    http.Flusher
	stall time.Duration
	bufs  net.Buffers
}

func newFrameWriter(w http.ResponseWriter, stall time.Duration) *frameWriter {
	fw := &frameWriter{w: w, rc: http.NewResponseController(w), stall: stall}
	fw.fl, _ = w.(http.Flusher)
	return fw
}

func (fw *frameWriter) armDeadline() {
	if fw.stall > 0 {
		_ = fw.rc.SetWriteDeadline(time.Now().Add(fw.stall))
	}
}

func (fw *frameWriter) clearDeadline() {
	if fw.stall > 0 {
		_ = fw.rc.SetWriteDeadline(time.Time{})
	}
}

// writeFrames writes a contiguous run of frames as one vectored write.
// net.Buffers consumes its entries, so the reused backing slice is
// repopulated from the frame refs on every call; the frames themselves
// are shared and never copied.
func (fw *frameWriter) writeFrames(frames [][]byte) error {
	fw.bufs = append(fw.bufs[:0], frames...)
	fw.armDeadline()
	_, err := fw.bufs.WriteTo(fw.w)
	fw.clearDeadline()
	return err
}

// flush pushes buffered bytes to the client, bounded by the stall
// deadline like any other write.
func (fw *frameWriter) flush() {
	if fw.fl == nil {
		return
	}
	fw.armDeadline()
	fw.fl.Flush()
	fw.clearDeadline()
}

// writeGone emits the eviction control line: the stream stays a valid
// NDJSON sequence, the client learns the position to reconnect from, and
// the handler returns without pinning the frame cache any longer. Best
// effort — a client that stopped reading may never see it.
func (fw *frameWriter) writeGone(resume int64) {
	line, err := json.Marshal(StreamGone{
		Error:      fmt.Sprintf("stream evicted: lagging past the server's bound; reconnect with ?from=%d", resume),
		Status:     http.StatusGone,
		ResumeFrom: resume,
	})
	if err != nil {
		return
	}
	fw.armDeadline()
	if _, err := fw.w.Write(append(line, '\n')); err == nil && fw.fl != nil {
		fw.fl.Flush()
	}
	fw.clearDeadline()
}

// SetStreamPolicy configures the slow-consumer policy for the read
// streams (dispatch and trace): maxLag is the record-count bound past
// which a following dispatch stream is evicted with a 410 control line
// (0 default, negative disables), stall the per-write deadline on every
// stream write (0 default, negative disables). Call before serving
// traffic, like SetClock.
func (s *Server) SetStreamPolicy(maxLag int64, stall time.Duration) {
	switch {
	case maxLag < 0:
		s.streamMaxLag = 0
	case maxLag == 0:
		s.streamMaxLag = DefaultStreamMaxLag
	default:
		s.streamMaxLag = maxLag
	}
	switch {
	case stall < 0:
		s.streamStall = 0
	case stall == 0:
		s.streamStall = DefaultStreamStall
	default:
		s.streamStall = stall
	}
}

// StreamEvictions reports how many read streams this server has evicted
// for lagging past the policy bound.
func (s *Server) StreamEvictions() int64 { return s.streamEvict.Load() }
