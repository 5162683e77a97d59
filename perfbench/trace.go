package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The tracer records spans around the calls this benchmark makes into
// each layer's public functions: the client calls, the probeserve
// handler (wrapped at its http.Handler boundary), the evaluator's
// Do/DoBatch, the store, strategy, planner, sim and des entry points.
// Nothing inside the program is instrumented. Spans are kept in memory
// and written out when the run ends.

// span is one recorded interval. Layer is the name's prefix up to the
// first dot ("client.Eval" belongs to layer "client"); spans of one
// request or loop iteration share Req.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// wireCount accumulates the transport-level work of one client call:
// HTTP attempts (retries are attempts past the first) and body bytes.
type wireCount struct {
	attempts  int
	reqBytes  int64
	respBytes atomic.Int64
}

type tracer struct {
	t0     time.Time
	nextID atomic.Uint64

	mu    sync.Mutex
	spans []span
	wire  map[uint64]*wireCount // by client span id
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), wire: map[uint64]*wireCount{}}
}

// spanCtx is the active span carried in a context.
type spanCtx struct {
	tr  *tracer
	id  uint64
	req uint64
}

type spanKey struct{}

// active is an open span; End records it. A nil *active is a no-op, so
// untraced code paths call the same methods.
type active struct {
	tr     *tracer
	id     uint64
	parent uint64
	req    uint64
	name   string
	start  time.Time
}

// root opens the top span of one traced unit (a request, an iteration).
// A nil tracer returns ctx unchanged and a nil span: every child span
// opened under it is then a no-op too.
func (tr *tracer) root(ctx context.Context, name string, req uint64, start time.Time) (context.Context, *active) {
	if tr == nil {
		return ctx, nil
	}
	a := &active{tr: tr, id: tr.nextID.Add(1), req: req, name: name, start: start}
	return context.WithValue(ctx, spanKey{}, spanCtx{tr: tr, id: a.id, req: req}), a
}

// child opens a span under the context's active span; a no-op when the
// context carries none.
func child(ctx context.Context, name string) (context.Context, *active) {
	return childAt(ctx, name, time.Now())
}

func childAt(ctx context.Context, name string, start time.Time) (context.Context, *active) {
	sc, ok := ctx.Value(spanKey{}).(spanCtx)
	if !ok {
		return ctx, nil
	}
	a := &active{tr: sc.tr, id: sc.tr.nextID.Add(1), parent: sc.id, req: sc.req, name: name, start: start}
	return context.WithValue(ctx, spanKey{}, spanCtx{tr: sc.tr, id: a.id, req: sc.req}), a
}

func (a *active) End() { a.EndAt(time.Now()) }

func (a *active) EndAt(end time.Time) {
	if a == nil {
		return
	}
	a.tr.record(span{ID: a.id, Parent: a.parent, Req: a.req, Name: a.name,
		Start: a.start.Sub(a.tr.t0).Nanoseconds(), End: end.Sub(a.tr.t0).Nanoseconds()})
}

func (tr *tracer) record(s span) {
	tr.mu.Lock()
	tr.spans = append(tr.spans, s)
	tr.mu.Unlock()
}

// traceHeader carries "req.parent" from the client-side transport to the
// server-side handler wrapper, so handler spans join their client call.
const traceHeader = "X-Perfbench-Span"

// transport wraps the client's RoundTripper: it forwards the active span
// to the handler in traceHeader and counts attempts and body bytes per
// client call.
type transport struct {
	tr   *tracer
	base http.RoundTripper
}

func (t transport) RoundTrip(req *http.Request) (*http.Response, error) {
	sc, ok := req.Context().Value(spanKey{}).(spanCtx)
	if !ok {
		return t.base.RoundTrip(req)
	}
	req = req.Clone(req.Context())
	req.Header.Set(traceHeader, fmt.Sprintf("%d.%d", sc.req, sc.id))
	t.tr.mu.Lock()
	wc := t.tr.wire[sc.id]
	if wc == nil {
		wc = &wireCount{}
		t.tr.wire[sc.id] = wc
	}
	wc.attempts++
	if req.ContentLength > 0 {
		wc.reqBytes += req.ContentLength
	}
	t.tr.mu.Unlock()
	res, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	res.Body = &countingBody{ReadCloser: res.Body, n: &wc.respBytes}
	return res, nil
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// wrapHandler records one span per traced request around the probeserve
// handler, named after the route ("probeserve.eval", "probeserve.stream").
func (tr *tracer) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hdr := r.Header.Get(traceHeader)
		reqS, parentS, ok := strings.Cut(hdr, ".")
		if !ok {
			h.ServeHTTP(w, r)
			return
		}
		req, err1 := strconv.ParseUint(reqS, 10, 64)
		parent, err2 := strconv.ParseUint(parentS, 10, 64)
		if err1 != nil || err2 != nil {
			h.ServeHTTP(w, r)
			return
		}
		name := "probeserve." + strings.TrimPrefix(r.URL.Path[strings.LastIndex(r.URL.Path, "/"):], "/")
		a := &active{tr: tr, id: tr.nextID.Add(1), parent: parent, req: req, name: name, start: time.Now()}
		h.ServeHTTP(w, r)
		a.End()
	})
}

// snapshot returns a copy of the recorded spans.
func (tr *tracer) snapshot() []span {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]span(nil), tr.spans...)
}

// wireTotals sums attempts, calls and bytes over the client spans with
// the given name.
func (tr *tracer) wireTotals(spans []span, name string) (calls, retries int, reqBytes, respBytes int64) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		calls++
		if wc := tr.wire[s.ID]; wc != nil {
			retries += wc.attempts - 1
			reqBytes += wc.reqBytes
			respBytes += wc.respBytes.Load()
		}
	}
	return calls, retries, reqBytes, respBytes
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its children.
func selfTimes(spans []span) map[uint64]time.Duration {
	kids := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered, cur int64 = 0, s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, cur), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[s.ID] = s.dur() - time.Duration(covered)
	}
	return out
}

// layerReport is the traced-run attribution of one workload: the self
// time of each layer over the spans under the blocking-path roots, and
// how much of the roots' wall time the named layers account for.
type layerReport struct {
	Wall     time.Duration
	Self     map[string]time.Duration
	Coverage float64 // sum of non-bench layer self times over Wall
}

// attribute computes the layer report over the span trees rooted at
// spans named rootName.
func attribute(spans []span, rootName string) layerReport {
	byID := make(map[uint64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	underRoot := func(s span) bool {
		for {
			if s.Name == rootName && s.Parent == 0 {
				return true
			}
			p, ok := byID[s.Parent]
			if !ok {
				return false
			}
			s = p
		}
	}
	self := selfTimes(spans)
	rep := layerReport{Self: map[string]time.Duration{}}
	var attributed time.Duration
	for _, s := range spans {
		if !underRoot(s) {
			continue
		}
		if s.Parent == 0 {
			rep.Wall += s.dur()
		}
		rep.Self[s.layer()] += self[s.ID]
		if s.layer() != "bench" {
			attributed += self[s.ID]
		}
	}
	rep.Coverage = ratio(float64(attributed), float64(rep.Wall))
	return rep
}

// durationsOf returns the durations of the spans with the given name.
func durationsOf(spans []span, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// dumpSpans writes the spans as JSON lines to path.
func dumpSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// call runs fn inside a child span of ctx named name and returns its wall
// time.
func call(ctx context.Context, name string, fn func() error) (time.Duration, error) {
	_, a := child(ctx, name)
	start := time.Now()
	err := fn()
	end := time.Now()
	a.EndAt(end)
	return end.Sub(start), err
}
