package server

// Benchmarks for the encode-once egress plane. BenchmarkDispatchFanout
// measures the cached-frame path: one op serializes a 64-record batch
// exactly once and fans the shared frames out to N subscribers through
// the reused net.Buffers vector. BenchmarkDispatchFanoutEncode is the
// pre-PR baseline it replaced — every subscriber runs its own
// json.Encoder over every record — so the acceptance ratio
// (allocs/op and ns/op-per-subscriber at 64 subs) is read straight off
// `go test -bench 'DispatchFanout' -benchmem`.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"

	"desyncpfair/internal/online"
	"desyncpfair/internal/rat"
)

// benchEvents builds a representative 64-record dispatch batch, as the
// executive's history records (with their task names) and as the wire
// events their frames decode to.
func benchEvents() ([]online.Record, []string, []DispatchEvent) {
	recs := make([]online.Record, 64)
	names := make([]string, 8)
	for i := range names {
		names[i] = fmt.Sprintf("task-%d", i)
	}
	evs := make([]DispatchEvent, 64)
	for i := range recs {
		recs[i] = online.Record{
			Start:    rat.FromInt(int64(i)),
			Finish:   rat.FromInt(int64(i + 1)),
			Deadline: int64(i + 2),
			Index:    int64(i / 8),
			Task:     int64(i % 8),
			Proc:     i % 4,
		}
	}
	for i := range evs {
		if err := json.Unmarshal(dispatchFrame(int64(i), names[recs[i].Task], &recs[i]), &evs[i]); err != nil {
			panic(err)
		}
	}
	return recs, names, evs
}

func BenchmarkDispatchFanout(b *testing.B) {
	recs, names, _ := benchEvents()
	for _, subs := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("%dsubs", subs), func(b *testing.B) {
			writers := make([]*frameWriter, subs)
			for i := range writers {
				writers[i] = &frameWriter{w: discardResponseWriter{}}
			}
			frames := make([][]byte, len(recs))
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				// Encode once — the tenant loop's side of the contract —
				// then every subscriber writes the same frames by reference.
				for i := range recs {
					frames[i] = dispatchFrame(int64(i), names[recs[i].Task], &recs[i])
				}
				for _, fw := range writers {
					if err := fw.writeFrames(frames); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkDispatchFanoutEncode is the replaced design: no shared cache,
// each subscriber encodes every record itself.
func BenchmarkDispatchFanoutEncode(b *testing.B) {
	_, _, evs := benchEvents()
	for _, subs := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("%dsubs", subs), func(b *testing.B) {
			encs := make([]*json.Encoder, subs)
			for i := range encs {
				encs[i] = json.NewEncoder(io.Discard)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				for _, enc := range encs {
					for _, ev := range evs {
						if err := enc.Encode(ev); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
		})
	}
}

// discardResponseWriter is the minimal ResponseWriter the frameWriter
// needs in a benchmark: writes vanish, there is no Flusher and no
// deadline support, exactly like an httptest recorder.
type discardResponseWriter struct{}

func (discardResponseWriter) Header() http.Header         { return nil }
func (discardResponseWriter) Write(p []byte) (int, error) { return len(p), nil }
func (discardResponseWriter) WriteHeader(int)             {}

// BenchmarkMetricsExposition measures a full /metrics render on the
// pooled strconv.Append* path, over a server with eight live tenants.
func BenchmarkMetricsExposition(b *testing.B) {
	s := New()
	defer s.Shutdown()
	for i := 0; i < 8; i++ {
		t, err := newTenant(fmt.Sprintf("bench-%d", i), 2, "", s.submitRing)
		if err != nil {
			b.Fatal(err)
		}
		s.opMu.RLock()
		_, err = s.addTenant(t)
		s.opMu.RUnlock()
		if err != nil {
			b.Fatal(err)
		}
	}
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		var infos []TenantInfo
		var snaps []tenantObsSnap
		for _, t := range s.allTenants() {
			infos = append(infos, t.Info())
			snaps = append(snaps, t.obsSnapshot())
		}
		buf = buf[:0]
		buf = s.obs.appendBuildInfo(buf)
		buf = s.metrics.appendMetrics(buf, infos)
		buf = s.obs.appendObsMetrics(buf, snaps)
		buf = s.appendWALMetrics(buf)
	}
	if len(buf) == 0 {
		b.Fatal("empty exposition")
	}
}
