package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"djinn/internal/gateway"
	"djinn/internal/models"
	"djinn/internal/nn"
	"djinn/internal/router"
	"djinn/internal/service"
	"djinn/internal/tonic"
)

// stack is the serving stack `djinn-service -http` runs with its
// default flags, built from the same public constructors: one server
// with the Tonic apps registered at their shipped defaults, a
// least-outstanding router over it, and the HTTP/JSON gateway over the
// router. The server listens for DJRT on one loopback port and the
// gateway for HTTP on another.
type stack struct {
	srv      *service.Server
	rt       *router.Router
	gw       *gateway.Gateway
	djrtAddr string
	httpURL  string

	httpSrv *http.Server
	wg      sync.WaitGroup
}

// taps are the harness's timing wrappers at the in-process layer
// boundaries of the HTTP path. Nil taps leave the stack exactly as
// djinn-service builds it.
type taps struct {
	gateway *timedBackend // Config.Backend: gateway → router
	router  *timedBackend // router → server
}

// buildStack registers apps on a fresh server and starts both
// listeners.
func buildStack(apps []models.App, tp taps) (*stack, error) {
	st := &stack{srv: service.NewServer()}
	for _, a := range apps {
		if err := tonic.Register(st.srv, a); err != nil {
			st.srv.Close()
			return nil, fmt.Errorf("registering %s: %w", a, err)
		}
	}
	st.rt = router.New(router.Config{Policy: router.LeastOutstanding})
	var toServer service.ContextBackend = st.srv
	if tp.router != nil {
		tp.router.next = st.srv
		toServer = tp.router
	}
	if err := st.rt.AddBackend("replica-0", toServer); err != nil {
		st.close()
		return nil, err
	}
	var toRouter service.ContextBackend = st.rt
	if tp.gateway != nil {
		tp.gateway.next = st.rt
		toRouter = tp.gateway
	}
	cfgApps := gateway.DefaultApps()
	served := map[string]bool{}
	for _, a := range apps {
		served[tonic.ServiceName(a)] = true
	}
	for name := range cfgApps {
		if !served[name] {
			delete(cfgApps, name)
		}
	}
	gw, err := gateway.New(gateway.Config{
		Backend: toRouter,
		Apps:    cfgApps,
		Cache:   gateway.CacheConfig{Budget: 64 << 20}, // djinn-service's -http-cache-mb default
	})
	if err != nil {
		st.close()
		return nil, err
	}
	st.gw = gw

	djrt, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.close()
		return nil, err
	}
	st.djrtAddr = djrt.Addr().String()
	st.wg.Add(1)
	go func() {
		defer st.wg.Done()
		st.srv.Serve(djrt)
	}()
	hl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.close()
		return nil, err
	}
	st.httpURL = "http://" + hl.Addr().String() + "/v1/infer"
	st.httpSrv = &http.Server{Handler: gw, ReadHeaderTimeout: 10 * time.Second}
	st.wg.Add(1)
	go func() {
		defer st.wg.Done()
		if err := st.httpSrv.Serve(hl); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Printf("perfbench: http listener: %v\n", err)
		}
	}()
	return st, nil
}

// close stops the listeners and the server and waits for both serve
// loops to return.
func (st *stack) close() {
	if st.httpSrv != nil {
		st.httpSrv.Close()
	}
	if st.rt != nil {
		st.rt.Close()
	}
	st.srv.Close()
	st.wg.Wait()
}

// timedBackend is a pass-through service.ContextBackend that, while
// its span is on, adds every call's wall time to the span.
type timedBackend struct {
	next service.ContextBackend
	span *span
}

func (t *timedBackend) Infer(app string, in []float32) ([]float32, error) {
	return t.InferCtx(context.Background(), app, in)
}

func (t *timedBackend) InferCtx(ctx context.Context, app string, in []float32) ([]float32, error) {
	if !t.span.on.Load() {
		return t.next.InferCtx(ctx, app, in)
	}
	t0 := time.Now()
	out, err := t.next.InferCtx(ctx, app, in)
	t.span.add(time.Since(t0))
	return out, err
}

// planBackend answers queries with one compiled execution plan per app
// and no server: no batching with other queries, no queue, no wire.
// It is the reference the served answers are checked against. Not safe
// for concurrent use.
type planBackend struct {
	plans map[string]*nn.Plan
}

// referenceNets builds the apps' networks with the weights
// models.BuildCached serves (seed 1) but outside its process-wide
// cache, so computing references does not warm the stack's set-up.
func referenceNets(apps []models.App) map[models.App]*nn.Net {
	nets := map[models.App]*nn.Net{}
	for _, a := range apps {
		nets[a] = models.Build(a, 1)
	}
	return nets
}

func newPlanBackend(nets map[models.App]*nn.Net) *planBackend {
	pb := &planBackend{plans: map[string]*nn.Plan{}}
	for a, n := range nets {
		pb.plans[tonic.ServiceName(a)] = n.Compile(maxInstances(a))
	}
	return pb
}

// maxInstances is the largest DNN instance count one query of app
// carries.
func maxInstances(a models.App) int {
	if a == models.DIG {
		return digImages
	}
	return sentenceWords
}

func (pb *planBackend) Infer(app string, in []float32) ([]float32, error) {
	p, ok := pb.plans[app]
	if !ok {
		return nil, fmt.Errorf("reference: no plan for %s", app)
	}
	per := 1
	for _, d := range p.Net().InShape() {
		per *= d
	}
	n := len(in) / per
	if n < 1 || n > p.MaxBatch() || n*per != len(in) {
		return nil, fmt.Errorf("reference: %s payload of %d floats", app, len(in))
	}
	copy(p.In(n).Data(), in)
	out := p.Run(n).Data()
	return append([]float32(nil), out...), nil
}
