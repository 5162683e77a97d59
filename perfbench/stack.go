package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"time"

	pq "probequorum"
	"probequorum/client"
	"probequorum/internal/probeserve"
)

// loadWorkers is the number of load goroutines and client connections:
// never more than the machine's CPU count, and at most two, so the
// offered load does not change with the size of the host.
func loadWorkers() int { return min(2, runtime.NumCPU()) }

// stack is one serving process as a user deploys it: an Evaluator behind
// probeserve's handler on a loopback listener, and a client speaking to
// it over real HTTP.
type stack struct {
	eval  *pq.Evaluator
	srv   *probeserve.Server
	hs    *http.Server
	tport *http.Transport
	cl    *client.Client
	done  chan struct{}
}

// startStack serves eval on 127.0.0.1. With a tracer, the handler and
// the client transport are wrapped to record spans for traced requests.
func startStack(eval *pq.Evaluator, tr *tracer) (*stack, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	srv := probeserve.New(eval)
	var h http.Handler = srv.Handler()
	tport := &http.Transport{
		MaxConnsPerHost:     loadWorkers(),
		MaxIdleConnsPerHost: loadWorkers(),
		IdleConnTimeout:     time.Minute,
	}
	var rt http.RoundTripper = tport
	if tr != nil {
		h = tr.wrapHandler(h)
		rt = transport{tr: tr, base: tport}
	}
	s := &stack{
		eval:  eval,
		srv:   srv,
		hs:    &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second},
		tport: tport,
		done:  make(chan struct{}),
	}
	s.cl = client.New("http://"+ln.Addr().String(),
		client.WithHTTPClient(&http.Client{Transport: rt}),
		client.WithTimeout(60*time.Second))
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	return s, nil
}

// stop drains the server, waits for its goroutine and drops the client's
// idle connections.
func (s *stack) stop() error {
	s.srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	<-s.done
	s.tport.CloseIdleConnections()
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("shutdown: %w", err)
	}
	return nil
}

// streamFold sends queries to /v1/stream and folds the cells into
// Results inside a client span.
func (s *stack) streamFold(ctx context.Context, queries []pq.Query) ([]*pq.Result, error) {
	cctx, a := child(ctx, "client.StreamEval")
	res, err := pq.FoldCells(s.cl.StreamEval(cctx, queries), len(queries))
	a.End()
	return res, err
}

// eval sends queries to /v1/eval inside a client span.
func (s *stack) evalCall(ctx context.Context, queries []pq.Query) ([]*pq.Result, error) {
	cctx, a := child(ctx, "client.Eval")
	res, err := s.cl.Eval(cctx, queries)
	a.End()
	return res, err
}

// resultErr returns the first per-query error of a batch, if any.
func resultErr(rs []*pq.Result) error {
	for _, r := range rs {
		if r == nil {
			return errors.New("missing result")
		}
		if r.Error != "" {
			return fmt.Errorf("query %s failed: %s", r.Spec, r.Error)
		}
	}
	return nil
}

// cacheStats reads the server's cache counters inside a client span.
func (s *stack) cacheStats(ctx context.Context) (pq.EvalStats, pq.ArtifactStoreStats, error) {
	cctx, a := child(ctx, "client.CacheStats")
	defer a.End()
	cs, err := s.cl.CacheStats(cctx)
	if err != nil {
		return pq.EvalStats{}, pq.ArtifactStoreStats{}, err
	}
	var st pq.ArtifactStoreStats
	if cs.Store != nil {
		st = *cs.Store
	}
	return cs.Eval, st, nil
}
