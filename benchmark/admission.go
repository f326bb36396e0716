package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	"tvnep/internal/admit"
	"tvnep/internal/certify"
	"tvnep/internal/numtol"
	"tvnep/pkg/tvnep"
)

// traceRequests is the length of the generated arrival trace. Both
// admission workloads generate the same trace, so they share its horizon and
// the certified run's decisions equal the stream's, apart from downgrades.
const traceRequests = 4000

// traceFlexHr is the scheduling flexibility of the default preset (hours).
const traceFlexHr = 2

// setupReps is how many times a run times its set-up; setup_s is their
// median. One more, untimed set-up runs first, so the process's own one-off
// initialization is not charged to the system.
const setupReps = 41

// capFactor bounds an untraced run's wall time: it makes a fixed amount of
// work, sized to fit the time budget on an idle host, and stops early (past
// its minimum) only after capFactor times the budget.
const capFactor = 4

// admissionSpec is one admission workload.
type admissionSpec struct {
	name    string
	certify bool
	// maxSend caps the requests a run posts; the run also stops at its
	// time budget.
	maxSend int
	// detPrefix is the number of leading decisions whose deterministic
	// counters are cross-checked and reported; it is always reached.
	detPrefix int
}

var (
	streamSpec    = admissionSpec{name: "admit-stream", maxSend: traceRequests, detPrefix: 400}
	certifiedSpec = admissionSpec{name: "admit-certified", certify: true, maxSend: 2000, detPrefix: 400}
)

// tailQAdmission is the tail percentile reported for decision latency.
const tailQAdmission = 0.99

// genTrace generates the default-preset Poisson trace for a seed: a 3×3
// grid, 3-node stars and 2 h of flexibility.
func genTrace(seed int64) *tvnep.Scenario {
	wl := tvnep.DefaultWorkload()
	wl.NumRequests = traceRequests
	wl.FlexibilityHr = traceFlexHr
	return tvnep.Generate(wl, seed)
}

// serveOptions are tvnep-serve's defaults: exact tiers, static cuts, arc
// flows, the engine's default node limit, one worker, no re-optimization.
func serveOptions(horizon float64, withCertify bool) []tvnep.Option {
	opts := []tvnep.Option{
		tvnep.WithHorizon(horizon),
		tvnep.WithCutMode(tvnep.CutStatic),
		tvnep.WithWorkers(1),
		tvnep.WithReoptEvery(0),
	}
	if withCertify {
		opts = append(opts, tvnep.WithCertify())
	}
	return opts
}

// encodeBodies renders the first n trace requests as /v1/admit bodies.
func encodeBodies(sc *tvnep.Scenario, n int) ([][]byte, error) {
	bodies := make([][]byte, n)
	for i := range bodies {
		b, err := json.Marshal(tvnep.AdmitRequest{
			Request: tvnep.EncodeRequest(sc.Requests[i]),
			Mapping: sc.Mapping[i],
		})
		if err != nil {
			return nil, fmt.Errorf("encode request %d: %w", i, err)
		}
		bodies[i] = b
	}
	return bodies, nil
}

// Headers that carry the client's span to the server-side middleware of a
// traced run.
const (
	hdrOp   = "X-Bench-Op"
	hdrSpan = "X-Bench-Span"
)

// endpoint is an in-process admission server on a loopback listener and the
// single keep-alive client connection that talks to it.
type endpoint struct {
	solver *tvnep.Solver
	hs     *http.Server
	served chan error
	tr     *http.Transport
	client *http.Client
	url    string
}

// startEndpoint serves tvnep.NewServer(solver) on 127.0.0.1. With a
// recorder, a middleware records the server-side spans.
func startEndpoint(solver *tvnep.Solver, rec *recorder) (*endpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	var h http.Handler = tvnep.NewServer(solver)
	if rec != nil {
		h = spanMiddleware(h, rec)
	}
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	ep := &endpoint{
		solver: solver,
		hs:     &http.Server{Handler: h, ReadHeaderTimeout: time.Minute},
		served: make(chan error, 1),
		tr:     tr,
		client: &http.Client{Transport: tr},
		url:    "http://" + ln.Addr().String() + "/v1/admit",
	}
	go func() { ep.served <- ep.hs.Serve(ln) }()
	return ep, nil
}

// stop closes the connection and the server and waits for Serve to return.
func (ep *endpoint) stop() {
	ep.tr.CloseIdleConnections()
	_ = ep.hs.Close() // the listener's close error carries nothing to act on
	<-ep.served
}

// admit posts one request body and returns the decoded decision and the
// client-observed round trip.
func (ep *endpoint) admit(body []byte, op int, rec *recorder) (tvnep.AdmitResponse, time.Duration, error) {
	var out tvnep.AdmitResponse
	req, err := http.NewRequest(http.MethodPost, ep.url, bytes.NewReader(body))
	if err != nil {
		return out, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	id := rec.open("client.admit", op, -1)
	if rec != nil {
		req.Header.Set(hdrOp, strconv.Itoa(op))
		req.Header.Set(hdrSpan, strconv.Itoa(id))
	}
	t0 := time.Now()
	resp, err := ep.client.Do(req)
	if err != nil {
		return out, 0, fmt.Errorf("post: %w", err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rtt := time.Since(t0)
	rec.finish(id)
	if err != nil {
		return out, rtt, fmt.Errorf("read reply: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return out, rtt, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, &out); err != nil {
		return out, rtt, fmt.Errorf("decode reply: %w", err)
	}
	return out, rtt, nil
}

// captureWriter remembers when the handler first wrote its reply and keeps
// a copy of the body, from which the middleware reads the engine latency.
type captureWriter struct {
	http.ResponseWriter
	firstWrite time.Time
	body       bytes.Buffer
}

func (w *captureWriter) Write(p []byte) (int, error) {
	if w.firstWrite.IsZero() {
		w.firstWrite = time.Now()
	}
	w.body.Write(p)
	return w.ResponseWriter.Write(p)
}

// spanMiddleware records a "server.handle" span around the admission
// server, child of the client span named in the request headers, and an
// "admit.engine" span inside it. The engine span is reconstructed from the
// engine-reported Decision.Stats.Latency, ending when the handler starts
// writing its reply: the in-engine boundaries are not callable from outside.
func spanMiddleware(next http.Handler, rec *recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, _ := strconv.Atoi(r.Header.Get(hdrOp))         // absent → op 0
		parent, err := strconv.Atoi(r.Header.Get(hdrSpan)) // absent → root span
		if err != nil {
			parent = -1
		}
		id := rec.open("server.handle", op, parent)
		cw := &captureWriter{ResponseWriter: w}
		next.ServeHTTP(cw, r)
		rec.finish(id)
		var reply struct {
			LatencyNS int64 `json:"latency_ns"`
		}
		if json.Unmarshal(cw.body.Bytes(), &reply) == nil && reply.LatencyNS > 0 && !cw.firstWrite.IsZero() {
			end := cw.firstWrite
			rec.add("admit.engine", op, id, end.Add(-time.Duration(reply.LatencyNS)), end)
		}
	})
}

// streamed is the outcome of posting a run of trace requests.
type streamed struct {
	replies []tvnep.AdmitResponse
	rtts    []time.Duration
	cpus    []time.Duration // process CPU time per request
	fails   []failure
}

// post sends request i and appends its reply and round trip, or a
// transport failure; it reports whether the request was decided.
func (s *streamed) post(ep *endpoint, bodies [][]byte, i int, rec *recorder) bool {
	c0 := processCPU()
	reply, rtt, err := ep.admit(bodies[i], i, rec)
	cpu := processCPU() - c0
	if err != nil {
		s.fails = append(s.fails, failure{failTransport, i, err.Error()})
		return false
	}
	s.replies = append(s.replies, reply)
	s.rtts = append(s.rtts, rtt)
	s.cpus = append(s.cpus, cpu)
	return true
}

// stream posts bodies[from:] in order, one at a time, until maxN requests
// are decided, the deadline passes with at least minN decided, or a
// request fails in transport.
func stream(ep *endpoint, bodies [][]byte, from, minN, maxN int, deadline time.Time) streamed {
	var s streamed
	for i := from; i < len(bodies) && i < maxN; i++ {
		if i >= minN && time.Now().After(deadline) {
			break
		}
		if !s.post(ep, bodies, i, nil) {
			break
		}
	}
	return s
}

// setUp starts a fresh solver and server and decides the first request.
func setUp(sc *tvnep.Scenario, spec admissionSpec, body0 []byte, rec *recorder) (*endpoint, tvnep.AdmitResponse, error) {
	solver, err := tvnep.New(sc.Substrate, serveOptions(sc.Horizon, spec.certify)...)
	if err != nil {
		return nil, tvnep.AdmitResponse{}, err
	}
	ep, err := startEndpoint(solver, rec)
	if err != nil {
		return nil, tvnep.AdmitResponse{}, err
	}
	first, _, err := ep.admit(body0, 0, rec)
	if err != nil {
		ep.stop()
		return nil, first, fmt.Errorf("first admission: %w", err)
	}
	return ep, first, nil
}

// runAdmission runs one admission workload.
func runAdmission(ctx context.Context, cfg runConfig, spec admissionSpec) (*report, error) {
	sc := genTrace(cfg.seed)
	bodies, err := encodeBodies(sc, spec.maxSend)
	if err != nil {
		return nil, err
	}
	rep := &report{metrics: newMetricSet()}
	rep.env = append(rep.env,
		fmt.Sprintf("trace_len=%d", traceRequests),
		fmt.Sprintf("max_send=%d", spec.maxSend),
		"load=closed-loop,1-client,1-connection")
	if cfg.traced {
		return rep, tracedAdmission(ctx, cfg, spec, sc, bodies, rep)
	}

	var ep *endpoint
	var first tvnep.AdmitResponse
	setups := make([]float64, 0, setupReps)
	for k := -1; k < setupReps; k++ {
		if ep != nil {
			ep.stop()
		}
		c0 := processCPU()
		ep, first, err = setUp(sc, spec, bodies[0], nil)
		if err != nil {
			return nil, err
		}
		if k >= 0 {
			setups = append(setups, (processCPU() - c0).Seconds())
		}
	}

	r0 := readRuntime()
	t0 := time.Now()
	run := stream(ep, bodies, 1, spec.detPrefix, spec.maxSend, t0.Add(capFactor*cfg.seconds))
	elapsed := time.Since(t0)
	r1 := readRuntime()
	heap := liveHeapMB()
	ep.stop()

	replies := append([]tvnep.AdmitResponse{first}, run.replies...)
	rep.attempted = len(replies) + len(run.fails)
	rep.failures = append(rep.failures, run.fails...)
	rep.failures = append(rep.failures, checkReplies(sc, replies)...)
	rep.failures = append(rep.failures, auditSolver(ep.solver)...)
	rep.failures = append(rep.failures, replayCheck(ctx, sc, spec, replies)...)

	accepted := 0
	for _, r := range replies {
		if r.Accepted {
			accepted++
		}
	}
	setTimings(rep, timings{
		op: "decision", cpus: run.cpus, walls: run.rtts, wall: elapsed, tailQ: tailQAdmission,
		setups: setups, setupWhat: "solver, server, first admission",
	})
	m := rep.metrics
	m.set("live_heap_mb", heap, "MiB", "after a final GC, engine state live")
	m.set("ok_frac", 1-ratio(float64(rep.failedOps()), float64(rep.attempted)), "ratio", fmt.Sprintf("%d of %d failed", rep.failedOps(), rep.attempted))
	m.set("accept_rate", ratio(float64(accepted), float64(len(replies))), "ratio", fmt.Sprintf("%d of %d", accepted, len(replies)))
	rep.env = append(rep.env, fmt.Sprintf("decisions=%d", len(replies)),
		fmt.Sprintf("gc_cpu_frac=%.4f", r0.to(r1).gcCPUFrac), "trace_overhead=n/a(untraced)")
	return rep, nil
}

// checkReplies checks every reply against its request: arrival index,
// name, and for accepted requests the window, duration and pinned hosts.
// Engine certificate downgrades are counted as cert_error failures.
func checkReplies(sc *tvnep.Scenario, replies []tvnep.AdmitResponse) []failure {
	var fails []failure
	bad := func(i int, format string, args ...interface{}) {
		fails = append(fails, failure{failTransport, i, fmt.Sprintf(format, args...)})
	}
	for i, r := range replies {
		req := sc.Requests[i]
		switch {
		case r.Index != i || r.Name != req.Name:
			bad(i, "reply %d/%q for request %d/%q", r.Index, r.Name, i, req.Name)
		case r.CertError != "":
			fails = append(fails, failure{failCertError, i, strings.Join(strings.Fields(r.CertError), " ")})
		case r.Accepted && (r.Start < req.Earliest-numtol.WindowTol || r.End > req.Latest+numtol.WindowTol):
			bad(i, "schedule [%v,%v] outside window [%v,%v]", r.Start, r.End, req.Earliest, req.Latest)
		case r.Accepted && math.Abs(r.End-r.Start-req.Duration) > numtol.WindowTol:
			bad(i, "schedule length %v, duration %v", r.End-r.Start, req.Duration)
		case r.Accepted && !slices.Equal(r.Hosts, sc.Mapping[i]):
			bad(i, "hosts %v, pinned mapping %v", r.Hosts, sc.Mapping[i])
		}
	}
	return fails
}

// auditSolver certifies the solver's committed decisions out of band.
func auditSolver(s *tvnep.Solver) []failure {
	inst, mapping, sol := s.Snapshot()
	return auditAdmissions(inst, mapping, sol)
}

// auditAdmissions certifies every accepted decision of a committed snapshot
// against the earlier accepted decisions whose schedules overlap it, with
// the independent certificate (Definition 2.1, objective skipped). A
// decision that fails is counted once, as an overload, and left out of the
// checks of later decisions, so each defect is charged to the decision that
// introduced it.
func auditAdmissions(inst *tvnep.Instance, mapping tvnep.NodeMapping, sol *tvnep.Solution) []failure {
	const touch = 1e-6 // hours; schedules closer than this count as overlapping
	var fails []failure
	var clean []int // accepted decisions that passed, in arrival order
	for i := range inst.Reqs {
		if !sol.Accepted[i] {
			continue
		}
		group := []int{}
		for _, j := range clean {
			if sol.End[j] > sol.Start[i]-touch && sol.Start[j] < sol.End[i]+touch {
				group = append(group, j)
			}
		}
		group = append(group, i)
		sub := &tvnep.Instance{Sub: inst.Sub, Horizon: inst.Horizon}
		subMap := tvnep.NodeMapping{}
		subSol := &tvnep.Solution{}
		for _, j := range group {
			sub.Reqs = append(sub.Reqs, inst.Reqs[j])
			subMap = append(subMap, mapping[j])
			subSol.Accepted = append(subSol.Accepted, true)
			subSol.Start = append(subSol.Start, sol.Start[j])
			subSol.End = append(subSol.End, sol.End[j])
			subSol.Hosts = append(subSol.Hosts, sol.Hosts[j])
			subSol.Flows = append(subSol.Flows, sol.Flows[j])
		}
		r := certify.Solution(sub, subSol, certify.Options{SkipObjective: true, Mapping: subMap})
		if !r.OK() {
			fails = append(fails, failure{failOverload, i, fmt.Sprintf("%s (against %d overlapping accepted)", r.Violations[0], len(group)-1)})
			continue
		}
		clean = append(clean, i)
	}
	return fails
}

// decisionRecord holds the deterministic fields of one decision.
type decisionRecord struct {
	accepted      bool
	start, end    float64
	tier          tvnep.Tier
	lpIters       int
	nodes         int
	warmUsed      bool
	basisExtended bool
	certError     bool
}

func recordOfReply(r tvnep.AdmitResponse) decisionRecord {
	return decisionRecord{r.Accepted, r.Start, r.End, r.Tier, r.LPIterations, r.Nodes, r.WarmUsed, r.BasisExtended, r.CertError != ""}
}

func recordOfDecision(d tvnep.Decision) decisionRecord {
	return decisionRecord{d.Accepted, d.Start, d.End, d.Stats.Tier, d.Stats.LPIterations, d.Stats.Nodes, d.Stats.WarmUsed, d.Stats.BasisExtended, d.CertErr != nil}
}

// fields names every deterministic counter with its exact value.
func (d decisionRecord) fields() []namedValue {
	return []namedValue{
		{"accepted", fmt.Sprint(d.accepted)},
		{"start", strconv.FormatFloat(d.start, 'g', -1, 64)},
		{"end", strconv.FormatFloat(d.end, 'g', -1, 64)},
		{"tier", string(d.tier)},
		{"lp_iterations", strconv.Itoa(d.lpIters)},
		{"nodes", strconv.Itoa(d.nodes)},
		{"warm_used", fmt.Sprint(d.warmUsed)},
		{"basis_extended", fmt.Sprint(d.basisExtended)},
		{"cert_error", fmt.Sprint(d.certError)},
	}
}

// namedValue is one counter of a deterministic record, rendered exactly.
type namedValue struct{ name, value string }

// compareFields returns one failure of the given kind for every field that
// differs between two records of operation op.
func compareFields(kind string, op int, want, got []namedValue) []failure {
	var fails []failure
	for k := range want {
		if want[k].value != got[k].value {
			fails = append(fails, failure{kind, op, fmt.Sprintf("%s: %s then %s", want[k].name, want[k].value, got[k].value)})
		}
	}
	return fails
}

// replayCheck replays the deterministic prefix of the trace through a fresh
// in-process solver and compares every decision with the served one.
func replayCheck(ctx context.Context, sc *tvnep.Scenario, spec admissionSpec, replies []tvnep.AdmitResponse) []failure {
	solver, err := tvnep.New(sc.Substrate, serveOptions(sc.Horizon, spec.certify)...)
	if err != nil {
		return []failure{{failDeterminism, -1, err.Error()}}
	}
	var fails []failure
	for i := 0; i < spec.detPrefix && i < len(replies); i++ {
		d, err := solver.Admit(ctx, sc.Requests[i], sc.Mapping[i])
		if err != nil {
			return append(fails, failure{failDeterminism, i, err.Error()})
		}
		fails = append(fails, compareFields(failDeterminism, i, recordOfReply(replies[i]).fields(), recordOfDecision(d).fields())...)
	}
	return fails
}

// tracedAdmission is the traced run of an admission workload. Two fresh
// servers decide the same trace in lockstep: an untraced one and one that
// records spans, taking turns at going first so that drift in machine load
// hits both alike. Their decisions must agree exactly; their time ratio is
// the tracing overhead.
func tracedAdmission(ctx context.Context, cfg runConfig, spec admissionSpec, sc *tvnep.Scenario, bodies [][]byte, rep *report) error {
	epU, firstU, err := setUp(sc, spec, bodies[0], nil)
	if err != nil {
		return err
	}
	rec := newRecorder()
	epT, firstT, err := setUp(sc, spec, bodies[0], rec)
	if err != nil {
		epU.stop()
		return err
	}
	plain := streamed{replies: []tvnep.AdmitResponse{firstU}}
	traced := streamed{replies: []tvnep.AdmitResponse{firstT}}
	var rt runtimeDelta
	r0 := readRuntime()
	deadline := time.Now().Add(cfg.seconds)
	for i := 1; i < len(bodies) && (i < spec.detPrefix || time.Now().Before(deadline)); i++ {
		ok := true
		for turn := 0; turn < 2 && ok; turn++ {
			if (turn == 0) == (i%2 == 1) {
				a := readRuntime()
				ok = plain.post(epU, bodies, i, nil)
				d := a.to(readRuntime())
				rt.allocs += d.allocs
				rt.allocBytes += d.allocBytes
			} else {
				ok = traced.post(epT, bodies, i, rec)
			}
		}
		if !ok {
			break
		}
	}
	rt.gcCPUFrac = r0.to(readRuntime()).gcCPUFrac
	epU.stop()
	epT.stop()

	n := len(traced.replies)
	rep.attempted = n
	rep.failures = append(rep.failures, plain.fails...)
	rep.failures = append(rep.failures, traced.fails...)
	rep.failures = append(rep.failures, checkReplies(sc, traced.replies)...)
	rep.failures = append(rep.failures, auditSolver(epT.solver)...)
	if len(plain.replies) != n {
		rep.failures = append(rep.failures, failure{failFaithfulness, -1, fmt.Sprintf("untraced server decided %d requests, traced %d", len(plain.replies), n)})
	}
	for i := 0; i < n && i < len(plain.replies); i++ {
		rep.failures = append(rep.failures, compareFields(failFaithfulness, i, recordOfReply(plain.replies[i]).fields(), recordOfReply(traced.replies[i]).fields())...)
	}

	spans := rec.snapshot()
	path, err := saveSpans(cfg, spec.name, rec)
	if err != nil {
		return err
	}
	overhead := ratio(sumDur(traced.rtts), sumDur(plain.rtts)) - 1
	rep.env = append(rep.env, fmt.Sprintf("decisions=%d", n), fmt.Sprintf("spans=%d", len(spans)),
		fmt.Sprintf("trace_overhead=%+.4f", overhead), "spans_file="+path)
	admissionLayers(rep.metrics, spec, traced.replies, traced.rtts, epT.solver.Decisions(), spans, rt, overhead)
	setWallLayers(rep.metrics, plain.rtts, tailQAdmission)
	return nil
}

// admissionLayers sets the per-layer metrics of an admission workload.
// Deterministic counters cover the first spec.detPrefix decisions, so they
// repeat exactly for a seed; timings cover the whole traced phase.
func admissionLayers(m *metricSet, spec admissionSpec, replies []tvnep.AdmitResponse, rtts []time.Duration,
	decisions []tvnep.Decision, spans []span, rt runtimeDelta, overhead float64) {
	k := min(spec.detPrefix, len(replies), len(decisions))
	var tiers = map[tvnep.Tier]int{}
	var iters, nodes, warm, extended, active, limitHits, downgrades, solved int
	for i := 0; i < k; i++ {
		r := replies[i]
		tiers[r.Tier]++
		iters += r.LPIterations
		nodes += r.Nodes
		if r.Tier != tvnep.TierPrecheck {
			solved++
		}
		if r.WarmUsed {
			warm++
		}
		if r.BasisExtended {
			extended++
		}
		if r.Nodes >= admit.DefaultNodeLimit {
			limitHits++
		}
		if r.CertError != "" {
			downgrades++
		}
		active += decisions[i].Stats.ActiveSet
	}
	note := fmt.Sprintf("first %d decisions", k)
	fk := float64(k)

	var engineLP, engineMIP, overheadUS []float64
	for i, r := range replies {
		lat := float64(r.LatencyNS) / 1e6
		switch r.Tier {
		case tvnep.TierLP:
			engineLP = append(engineLP, lat)
		case tvnep.TierMIP:
			engineMIP = append(engineMIP, lat)
		}
		if i > 0 { // decision 0's round trip belongs to set-up
			overheadUS = append(overheadUS, float64(rtts[i-1].Nanoseconds()-r.LatencyNS)/1e3)
		}
	}
	self := selfTimes(spans)
	var clientSelf, serverSelf []float64
	for i, s := range spans {
		switch s.Name {
		case "client.admit":
			clientSelf = append(clientSelf, float64(self[i])/1e3)
		case "server.handle":
			serverSelf = append(serverSelf, float64(self[i])/1e3)
		}
	}
	all := fmt.Sprintf("all %d decisions", len(replies))
	m.set("server.overhead_us_p50", median(overheadUS), "us", "round trip minus engine latency, "+all)
	m.set("server.client_self_us_p50", median(clientSelf), "us", "client span self time: transport and client codec")
	m.set("server.handler_self_us_p50", median(serverSelf), "us", "handler span self time: server codec and routing")
	m.set("admit.latency_ms_p50.lp", median(engineLP), "ms", fmt.Sprintf("engine latency, n=%d", len(engineLP)))
	m.set("admit.latency_ms_p50.mip", median(engineMIP), "ms", fmt.Sprintf("engine latency, n=%d", len(engineMIP)))
	m.set("admit.tier_frac.precheck", ratio(float64(tiers[tvnep.TierPrecheck]), fk), "ratio", note)
	m.set("admit.tier_frac.lp", ratio(float64(tiers[tvnep.TierLP]), fk), "ratio", note)
	m.set("admit.tier_frac.mip", ratio(float64(tiers[tvnep.TierMIP]), fk), "ratio", note)
	m.set("admit.lp_iters_per_decision", ratio(float64(iters), fk), "count", note)
	m.set("admit.nodes_per_decision", ratio(float64(nodes), fk), "count", note)
	m.set("admit.warm_rate", ratio(float64(warm), float64(solved)), "ratio", "of solved decisions, "+note)
	m.set("admit.basis_extended_frac", ratio(float64(extended), float64(solved)), "ratio", "of solved decisions, "+note)
	m.set("admit.active_set_mean", ratio(float64(active), fk), "count", note)
	m.set("admit.node_limit_hits", float64(limitHits), "count", note)
	m.set("admit.allocs_per_decision", ratio(rt.allocs, float64(len(replies)-1)), "count", "during the untraced server's calls")
	m.set("admit.bytes_per_decision", ratio(rt.allocBytes, float64(len(replies)-1)), "B", "during the untraced server's calls")
	m.set("certify.downgrades", float64(downgrades), "count", note)
	setRuntimeLayers(m, rt, float64(len(replies)-1), overhead)
}

// setRuntimeLayers sets the per-layer metrics every workload reports.
func setRuntimeLayers(m *metricSet, rt runtimeDelta, ops, overhead float64) {
	m.set("runtime.gc_cpu_frac", rt.gcCPUFrac, "ratio", "whole traced run")
	m.set("runtime.allocs_per_op", ratio(rt.allocs, ops), "count", "during the untraced calls")
	m.set("trace.overhead_frac", overhead, "ratio", "traced / untraced time over the same operations, minus 1")
}
