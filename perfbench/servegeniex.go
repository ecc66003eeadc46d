package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"geniex/internal/core"
	"geniex/internal/funcsim"
	"geniex/internal/linalg"
	"geniex/internal/nn"
	"geniex/internal/serve"
)

// serve-geniex: one op is POST /v1/infer with one image, served by a
// geniex → ideal ladder on 16×16 tiles behind serve.NewServer
// defaults, from serveClients closed-loop clients over keep-alive
// loopback connections, one tenant each. The funcsim pipeline and the
// GENIEx MLP do nearly all the work; the fidelity probe is off, so
// xbar does none.
const (
	serveTile    = 16
	serveClients = 2
	servePool    = 16 // distinct request images, drawn from the workload seed
	gxSamples    = 500
	gxHidden     = 128
	// gxEpochs keeps the surrogate's training near two seconds, so three
	// set-ups fit in a run; the served model's size (gxHidden) is what
	// sets the per-request cost.
	gxEpochs = 40

	hdrOp     = "X-Bench-Op"
	hdrParent = "X-Bench-Parent"
)

var gxSparsities = []float64{0, 0.25, 0.5, 0.75, 0.9, 0.97}

// loopback is one serve.Server listening on 127.0.0.1.
type loopback struct {
	hs   *http.Server
	url  string
	done chan struct{}
}

func startServer(gx, ideal serve.Runner, version func() int64, in, out int, wrap func(http.Handler) http.Handler) (*loopback, error) {
	srv, err := serve.NewServer(serve.Config{
		Tiers: []serve.Tier{
			{Name: "geniex", Runner: gx, ShedAt: 1.5, Version: version},
			{Name: "ideal", Runner: ideal},
		},
		In: in, Out: out,
	})
	if err != nil {
		return nil, err
	}
	var h http.Handler = srv
	if wrap != nil {
		h = wrap(srv)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lb := &loopback{hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String() + "/v1/infer", done: make(chan struct{})}
	go func() {
		defer close(lb.done)
		_ = lb.hs.Serve(ln) // returns http.ErrServerClosed once close is called
	}()
	return lb, nil
}

func (l *loopback) close() {
	_ = l.hs.Close() // closes the listener and every connection; nothing to flush
	<-l.done
}

type serveEnv struct {
	in, out int
	cnn     *nn.Sequential
	cfg     funcsim.Config
	gx      *core.Model
	simGX   *funcsim.Sim
	ideal   *funcsim.Sim
	version func() int64
	srv     *loopback
}

// setUp trains the CNN and the surrogate, lowers both tiers and starts
// listening: everything before the first request can be sent.
func setUpServe() (*serveEnv, error) {
	set, n, err := trainCNN()
	if err != nil {
		return nil, err
	}
	cfg, err := simConfig(serveTile)
	if err != nil {
		return nil, err
	}
	ds, err := core.Generate(cfg.Xbar, core.GenOptions{Samples: gxSamples, StreamBits: 4, SliceBits: 4, Sparsities: gxSparsities, Seed: 51})
	if err != nil {
		return nil, err
	}
	gx, err := core.NewModel(cfg.Xbar, gxHidden, 61)
	if err != nil {
		return nil, err
	}
	if err := gx.Train(ds, core.TrainOptions{Epochs: gxEpochs, Seed: 71}); err != nil {
		return nil, err
	}
	eng, err := funcsim.NewEngine(cfg, funcsim.GENIEx{Model: gx})
	if err != nil {
		return nil, err
	}
	simGX, err := funcsim.Lower(n, eng)
	if err != nil {
		return nil, err
	}
	ideal, err := lower(n, cfg, funcsim.Ideal{})
	if err != nil {
		return nil, err
	}
	e := &serveEnv{in: set.Features(), out: set.Classes, cnn: n, cfg: cfg, gx: gx, simGX: simGX, ideal: ideal, version: eng.ModelVersion}
	e.srv, err = startServer(simGX, ideal, e.version, e.in, e.out, nil)
	return e, err
}

type client struct {
	hc  *http.Client
	url string
}

func newClient(url string) *client {
	return &client{url: url, hc: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: serveClients, DisableCompression: true,
	}}}
}

// infer sends one request and reads the whole response; end is when
// the last byte was read.
func (c *client) infer(ctx context.Context, body []byte, op, parent int64) (resp serve.InferResponse, end time.Time, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url, bytes.NewReader(body))
	if err != nil {
		return resp, time.Now(), err
	}
	req.Header.Set("Content-Type", "application/json")
	if op != 0 {
		req.Header.Set(hdrOp, strconv.FormatInt(op, 10))
		req.Header.Set(hdrParent, strconv.FormatInt(parent, 10))
	}
	res, err := c.hc.Do(req)
	if err != nil {
		return resp, time.Now(), err
	}
	data, err := io.ReadAll(res.Body)
	res.Body.Close()
	end = time.Now()
	if err != nil {
		return resp, end, err
	}
	if res.StatusCode != http.StatusOK {
		return resp, end, fmt.Errorf("status %d: %s", res.StatusCode, data)
	}
	return resp, end, json.Unmarshal(data, &resp)
}

// served is a response's check: the geniex tier answered, nothing was
// shed, and the logits match the set-up-time Sim.Forward reference.
func served(resp serve.InferResponse, ref []float64) bool {
	return resp.Tier == "geniex" && resp.Shed == 0 && len(resp.Outputs) == 1 &&
		len(resp.Outputs[0]) == len(ref) && rrmse(resp.Outputs[0], ref) <= opTolerance
}

func serveGeniex(b *bench) error {
	var envs []*serveEnv
	err := b.timeSetup(func() error {
		e, err := setUpServe()
		if e != nil && e.srv != nil {
			envs = append(envs, e)
		}
		return err
	})
	defer func() {
		for _, e := range envs {
			e.srv.close()
		}
	}()
	if err != nil {
		return err
	}
	env := envs[len(envs)-1]

	imgs := images(servePool, subSeed(b.seed, 0))
	key := func(i int) string { return fmt.Sprintf("image-%d", i) }
	refs := make([][]float64, len(imgs))
	bodies := make([][][]byte, serveClients)
	for c := range bodies {
		bodies[c] = make([][]byte, len(imgs))
	}
	for i, x := range imgs {
		y, err := env.simGX.Forward(x)
		if err != nil {
			return fmt.Errorf("reference image %d: %w", i, err)
		}
		refs[i] = append([]float64(nil), y.Data...)
		for c := range bodies {
			if bodies[c][i], err = json.Marshal(serve.InferRequest{Tenant: fmt.Sprintf("client-%d", c), Inputs: [][]float64{x.Data}}); err != nil {
				return err
			}
		}
	}

	// serial sends every pool image once, one at a time: the warm-up,
	// and the only place per-request work can be told apart.
	serial := func(cl *client) inputCounts {
		ic, bad := inputCounts{}, 0
		for i := range imgs {
			c0 := readCounts()
			resp, _, err := cl.infer(context.Background(), bodies[0][i], 0, 0)
			if err != nil || !served(resp, refs[i]) {
				bad++
			}
			ic[key(i)] = readCounts().minus(c0).work()
		}
		b.check("serial-pass-served", bad == 0, fmt.Sprintf("%d of %d requests failed", bad, len(imgs)))
		return ic
	}
	// A request in flight when the window closes runs to completion
	// (uncounted), so the server is idle when the window returns and
	// the window's counters cover whole requests.
	op := func(cl *client, tr *tracer, degraded *atomic.Int64) opFunc {
		return func(_ context.Context, caller, seq int) opOut {
			i := (seq*serveClients + caller) % len(imgs)
			id := tr.newID()
			start := time.Now()
			resp, end, err := cl.infer(context.Background(), bodies[caller][i], id, id)
			tr.record(span{name: "client.request", op: id, id: id, start: start, end: end})
			if err == nil && (resp.Shed > 0 || resp.Retries > 0) {
				degraded.Add(1)
			}
			return opOut{end: end, input: key(i), ok: err == nil && served(resp, refs[i])}
		}
	}
	window := func(cl *client, tr *tracer, d time.Duration) (*windowResult, float64) {
		var degraded atomic.Int64
		w := runWindow(d, serveClients, op(cl, tr, &degraded))
		b.check("xbar-idle", w.delta[cSolves] == 0, fmt.Sprintf("%g circuit solves in the window", w.delta[cSolves]))
		return w, ratio(float64(degraded.Load()), float64(len(w.ops)+w.cutOff))
	}

	plain := newClient(env.srv.url)
	defer plain.hc.CloseIdleConnections()
	untracedCounts := serial(plain)
	if !b.traced {
		w, _ := window(plain, nil, b.window)
		b.endToEnd(w)
		b.printInputs(untracedCounts)
		b.note("counts digest %s", untracedCounts.digest())
		if _, err := b.gate(); err != nil {
			return err
		}
		rr, err := b.servedVsCircuit(env, plain)
		if err != nil {
			return err
		}
		val, err := core.Generate(env.cfg.Xbar, core.GenOptions{Samples: 200, StreamBits: 4, SliceBits: 4, Sparsities: gxSparsities, Seed: 52})
		if err != nil {
			return err
		}
		nf, _ := fidelity(env.gx, val)
		b.check("surrogate-nf-finite", finite(nf), fmt.Sprintf("NF RMSE %.4g", nf))
		b.set("rrmse_vs_circuit", "ratio", rr)
		b.set("nf_rmse", "ratio", nf)
		return nil
	}

	untraced, _ := window(plain, nil, b.window/2)
	b.countOps(untraced)

	tr := newTracer()
	runner := serve.RunnerFunc(func(ctx context.Context, x *linalg.Dense) (*linalg.Dense, error) {
		sc, start := spanFrom(ctx), time.Now()
		y, err := env.simGX.ForwardContext(ctx, x)
		tr.record(span{name: "funcsim.forward", op: sc.op, parent: sc.parent, start: start, end: time.Now()})
		return y, err
	})
	wrap := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			op, _ := strconv.ParseInt(r.Header.Get(hdrOp), 10, 64) // absent in the serial pass: op 0
			parent, _ := strconv.ParseInt(r.Header.Get(hdrParent), 10, 64)
			id, start := tr.newID(), time.Now()
			h.ServeHTTP(w, r.WithContext(withSpan(r.Context(), op, id)))
			tr.record(span{name: "serve.handler", op: op, id: id, parent: parent, start: start, end: time.Now()})
		})
	}
	tsrv, err := startServer(runner, env.ideal, env.version, env.in, env.out, wrap)
	if err != nil {
		return err
	}
	defer tsrv.close()
	tcl := newClient(tsrv.url)
	defer tcl.hc.CloseIdleConnections()
	tracedCounts := serial(tcl)
	b.printInputs(tracedCounts)
	b.note("counts digest %s", tracedCounts.digest())
	b.checkInputs(untracedCounts, tracedCounts)
	tr.reset()
	traced, degradedShare := window(tcl, tr, b.window/2)
	b.countOps(traced)
	if _, err := b.gate(); err != nil {
		return err
	}
	b.traceOverhead(untraced, traced)
	spans := tr.snapshot()
	pre, post, transport := serveSplit(spans)
	b.perLayer(traced, spans, map[string]float64{
		"serve.pre_ms": pre, "serve.post_ms": post, "serve.transport_ms": transport,
		"serve.degraded_share": degradedShare,
	})
	return b.writeTrace(tr)
}

// serveSplit medians, over requests, the server's time before the
// runner (decode, validation, admission, ladder), after it (encode),
// and the client's round trip outside the handler.
func serveSplit(spans []span) (pre, post, transport float64) {
	byOp := map[int64]map[string]span{}
	for _, s := range spans {
		if byOp[s.op] == nil {
			byOp[s.op] = map[string]span{}
		}
		byOp[s.op][s.name] = s
	}
	var pres, posts, transports []float64
	for _, m := range byOp {
		c, okC := m["client.request"]
		h, okH := m["serve.handler"]
		r, okR := m["funcsim.forward"]
		if !okC || !okH || !okR {
			continue
		}
		pres = append(pres, ms(r.start.Sub(h.start)))
		posts = append(posts, ms(h.end.Sub(r.end)))
		transports = append(transports, ms(c.dur()-h.dur()))
	}
	return median(pres), median(posts), median(transports)
}

// servedVsCircuit sends a fixed check image and compares the served
// logits with the circuit tier's at the same design point (16×16).
// The check image does not depend on the workload seed.
func (b *bench) servedVsCircuit(env *serveEnv, cl *client) (float64, error) {
	x := images(1, 777)[0]
	body, err := json.Marshal(serve.InferRequest{Inputs: [][]float64{x.Data}})
	if err != nil {
		return 0, err
	}
	resp, _, err := cl.infer(context.Background(), body, 0, 0)
	if err != nil {
		return 0, fmt.Errorf("check image: %w", err)
	}
	if len(resp.Outputs) != 1 {
		return 0, errors.New("check image: no outputs")
	}
	circuit, err := lower(env.cnn, env.cfg, funcsim.Circuit{Cfg: env.cfg.Xbar})
	if err != nil {
		return 0, err
	}
	y, err := circuit.Forward(x)
	if err != nil {
		return 0, fmt.Errorf("circuit reference: %w", err)
	}
	r := rrmse(resp.Outputs[0], y.Data)
	b.check("served-vs-circuit-finite", finite(r) && resp.Tier == "geniex", fmt.Sprintf("rRMSE %.4g from tier %s", r, resp.Tier))
	return r, nil
}
