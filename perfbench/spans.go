package main

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"gillis/internal/gateway"
	"gillis/internal/mesh"
	"gillis/internal/runtime"
	"gillis/internal/simnet"
	"gillis/internal/tensor"
	"gillis/internal/trace"
)

// hostNow reads the host monotonic clock. It is the benchmark's only
// wall-clock read; every host timing below goes through it.
func hostNow() time.Time {
	//gillis:allow nodeterm,clockflow the benchmark reports host wall-clock time; no simulated result depends on it
	return time.Now()
}

// msSince is the host milliseconds elapsed since t.
func msSince(t time.Time) float64 { return float64(hostNow().Sub(t)) / 1e6 }

// span is one host-clock interval recorded around a call the benchmark
// makes into the program. Start and End are nanoseconds since the run
// began; Parent indexes the run's span list (-1 for a top-level span).
// Query is shared by every span of one query (or one replay round).
type span struct {
	Name   string `json:"name"`
	Query  string `json:"query"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced runs and untraced rounds stay free of
// span bookkeeping.
type tracer struct {
	t0    time.Time
	spans []span
}

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name, query string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Query: query, Parent: parent,
		Start: int64(hostNow().Sub(t.t0))})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = int64(hostNow().Sub(t.t0))
}

// spanStat is the per-name roll-up of the recorded spans.
type spanStat struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// rollup sums duration and self time (duration minus the time its child
// spans cover) per span name, in name order. Children may overlap: the
// serve calls of one replay round interleave on the host as the
// simulation switches between query processes, so the covered time is
// the union of the child intervals.
func (t *tracer) rollup() []spanStat {
	if t == nil {
		return nil
	}
	children := make([][]span, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := map[string]*spanStat{}
	var names []string
	for i, s := range t.spans {
		st := byName[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			byName[s.Name] = st
			names = append(names, s.Name)
		}
		st.Count++
		st.TotalMs += float64(s.End-s.Start) / 1e6
		st.SelfMs += float64(s.End-s.Start-coveredNs(children[i])) / 1e6
	}
	sort.Strings(names)
	out := make([]spanStat, 0, len(names))
	for _, n := range names {
		out = append(out, *byName[n])
	}
	return out
}

// coveredNs is the length of the union of the spans' intervals.
func coveredNs(ss []span) int64 {
	sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
	var total, curStart, curEnd int64
	for i, s := range ss {
		if i == 0 || s.Start > curEnd {
			total += curEnd - curStart
			curStart, curEnd = s.Start, s.End
		} else if s.End > curEnd {
			curEnd = s.End
		}
	}
	return total + curEnd - curStart
}

// write stores every span and the per-name roll-up as one gzip-compressed
// JSON file (a traced mesh-zipf run records about half a million spans).
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, _ := gzip.NewWriterLevel(f, gzip.BestSpeed) // a valid level cannot fail
	err = json.NewEncoder(zw).Encode(struct {
		Spans  []span     `json:"spans"`
		Rollup []spanStat `json:"rollup"`
	}{t.spans, t.rollup()})
	if cerr := zw.Close(); err == nil {
		err = cerr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// callTimer collects the host time of the serve calls a wrapped backend
// or router makes. It always times (the Real workloads' wall_ms_* come
// from it); it records spans only while tr is set.
type callTimer struct {
	tr      *tracer
	parent  int
	round   int
	serveMs []float64
	serveQ  []int
	acqUs   []float64
}

// query names the span owner: the simulated process is the gateway's
// per-query process, so every span of one query shares this ID.
func (c *callTimer) query(proc *simnet.Proc) string {
	if c.tr == nil {
		return ""
	}
	return fmt.Sprintf("r%d/%s", c.round, proc.Name)
}

// timeServe times f, one serve call of size queries.
func (c *callTimer) timeServe(proc *simnet.Proc, name string, size int, f func()) {
	id := c.tr.begin(name, c.query(proc), c.parent)
	t := hostNow()
	f()
	c.serveMs = append(c.serveMs, msSince(t))
	c.serveQ = append(c.serveQ, max(size, 1))
	c.tr.end(id)
}

// timedBackend wraps the deployment the gateway serves through, timing
// each Serve and ServeBatch call on the host clock.
type timedBackend struct {
	*runtime.Deployment
	c *callTimer
}

func (b timedBackend) Serve(proc *simnet.Proc, in *tensor.Tensor) (res runtime.Result, err error) {
	b.c.timeServe(proc, "runtime.serve", 1, func() { res, err = b.Deployment.Serve(proc, in) })
	return res, err
}

func (b timedBackend) ServeTraced(proc *simnet.Proc, in *tensor.Tensor) (res runtime.Result, tr *trace.Trace, err error) {
	b.c.timeServe(proc, "runtime.serve", 1, func() { res, tr, err = b.Deployment.ServeTraced(proc, in) })
	return res, tr, err
}

func (b timedBackend) ServeBatch(proc *simnet.Proc, ins []*tensor.Tensor, size int) (res runtime.BatchResult, err error) {
	b.c.timeServe(proc, "runtime.serve_batch", size, func() { res, err = b.Deployment.ServeBatch(proc, ins, size) })
	return res, err
}

func (b timedBackend) ServeBatchTraced(proc *simnet.Proc, ins []*tensor.Tensor, size int) (res runtime.BatchResult, tr *trace.Trace, err error) {
	b.c.timeServe(proc, "runtime.serve_batch", size, func() { res, tr, err = b.Deployment.ServeBatchTraced(proc, ins, size) })
	return res, tr, err
}

// The wrappers stand in for the program's own types at the gateway.
var (
	_ gateway.BatchBackend = timedBackend{}
	_ gateway.Router       = timedRouter{}
)

// timedRouter wraps the mesh's placement: it times each Acquire and wraps
// the routed deployment so its Serve calls are timed too.
type timedRouter struct {
	m *mesh.Mesh
	c *callTimer
}

func (r timedRouter) Acquire(proc *simnet.Proc, model string) (gateway.Backend, func(), error) {
	id := r.c.tr.begin("mesh.acquire", r.c.query(proc), r.c.parent)
	t := hostNow()
	b, release, err := r.m.Acquire(proc, model)
	r.c.acqUs = append(r.c.acqUs, msSince(t)*1000)
	r.c.tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	d, ok := b.(*runtime.Deployment)
	if !ok {
		return nil, nil, fmt.Errorf("perfbench: mesh routed to %T, want *runtime.Deployment", b)
	}
	return timedBackend{d, r.c}, release, nil
}
