// Command tvnep-benchmark measures the TVNEP system end to end and layer by
// layer on three seeded workloads:
//
//	admit-stream     a Poisson request trace posted to POST /v1/admit
//	admit-certified  the same trace with per-decision certification on
//	solve-offline    a fixed batch of certified Solver.Solve calls
//
// Every run checks every answer, counts failed operations against attempted
// ones, and prints its metrics by name and unit, ending with one JSON line.
// With --trace 0 the metrics are the end-to-end ones, measured untraced;
// with --trace 1 they are the per-layer ones, from a run that records spans
// in memory and writes them out at exit. See README.md for the metric list.
//
// Build and run it through run.sh from the repository root:
//
//	bash benchmark/run.sh --workload admit-stream --seed 3 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workloadNames lists the workloads in the order --workload all runs them.
var workloadNames = []string{"admit-stream", "admit-certified", "solve-offline"}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds time.Duration
	traced  bool
	outDir  string // span files of traced runs go here ("" → not written)
}

// failure is one failed operation or one failed run-level check.
type failure struct {
	Kind   string
	Op     int // operation index, or -1 for a run-level check
	Detail string
}

// Failure kinds. Every kind counts into fail_frac; only the known engine
// defects (see README.md) leave the run's "correct" flag set.
const (
	failTransport    = "transport"    // HTTP or engine error, malformed reply
	failCertError    = "cert_error"   // the engine downgraded a decision it could not certify
	failOverload     = "overload"     // an accepted decision fails the benchmark's certificate
	failSolve        = "solve"        // an offline solve errored or missed its reference
	failDeterminism  = "determinism"  // a deterministic counter differs between two runs of one input
	failFaithfulness = "faithfulness" // the traced pipeline disagrees with the untraced solve
)

// knownDefect reports whether a failure kind is a documented engine defect
// that the benchmark measures rather than treats as a broken run.
func knownDefect(kind string) bool { return kind == failCertError || kind == failOverload }

// report is what a workload hands back to main.
type report struct {
	attempted int
	failures  []failure
	metrics   *metricSet
	env       []string // extra "key=value" environment fields
}

// failedOps counts failed operations: each operation at most once, and each
// run-level failure once.
func (r *report) failedOps() int {
	seen := map[int]bool{}
	n := 0
	for _, f := range r.failures {
		if f.Op < 0 {
			n++
			continue
		}
		if !seen[f.Op] {
			seen[f.Op] = true
			n++
		}
	}
	return n
}

// correct is false when any failure is outside the known engine defects.
func (r *report) correct() bool {
	for _, f := range r.failures {
		if !knownDefect(f.Kind) {
			return false
		}
	}
	return true
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tvnep-benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "admit-stream | admit-certified | solve-offline | all")
	seed := fs.Int64("seed", 1, "trace / scenario seed")
	seconds := fs.Float64("seconds", 20, "measurement budget of one run, in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	outDir := fs.String("out-dir", "", "directory for the span files of traced runs")
	printRefs := fs.Bool("print-refs", false, "solve the offline reference pool in arc mode and print it as Go source")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *printRefs {
		if err := printReferences(stdout); err != nil {
			fmt.Fprintln(stderr, "tvnep-benchmark:", err)
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "tvnep-benchmark: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "tvnep-benchmark: --seconds must be positive")
		return 2
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames
	}
	cfg := runConfig{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		traced:  *trace == 1,
		outDir:  *outDir,
	}
	for _, n := range names {
		if err := runWorkload(n, cfg, stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "tvnep-benchmark:", err)
			return 1
		}
	}
	return 0
}

// runWorkload runs one workload and prints its lines and result.
func runWorkload(name string, cfg runConfig, stdout, stderr io.Writer) error {
	ctx := context.Background()
	var rep *report
	var err error
	switch name {
	case "admit-stream":
		rep, err = runAdmission(ctx, cfg, streamSpec)
	case "admit-certified":
		rep, err = runAdmission(ctx, cfg, certifiedSpec)
	case "solve-offline":
		rep, err = runOffline(ctx, cfg)
	default:
		return fmt.Errorf("unknown workload %q (want admit-stream, admit-certified, solve-offline or all)", name)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	if unknown := rep.metrics.complete(defs); len(unknown) > 0 {
		return fmt.Errorf("%s: metrics missing from the catalogue: %v", name, unknown)
	}

	fmt.Fprintf(stdout, "# env workload=%s seed=%d trace=%v seconds=%g nproc=%d GOMAXPROCS=%d go=%s",
		name, cfg.seed, cfg.traced, cfg.seconds.Seconds(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	for _, kv := range rep.env {
		fmt.Fprintf(stdout, " %s", kv)
	}
	fmt.Fprintln(stdout)
	for _, n := range rep.metrics.names {
		m := rep.metrics.values[n]
		fmt.Fprintf(stdout, "# %-34s %14.6g %-6s %s\n", n, m.Value, m.Unit, rep.metrics.notes[n])
	}
	const maxShown = 20
	for i, f := range rep.failures {
		if i == maxShown {
			fmt.Fprintf(stderr, "failure: ... %d more\n", len(rep.failures)-maxShown)
			break
		}
		fmt.Fprintf(stderr, "failure: %s op=%d %s\n", f.Kind, f.Op, f.Detail)
	}
	fmt.Fprintf(stdout, "# failures=%d failed_ops=%d attempted=%d correct=%v\n",
		len(rep.failures), rep.failedOps(), rep.attempted, rep.correct())

	line, err := json.Marshal(result{
		Correct:   rep.correct(),
		Attempted: rep.attempted,
		Failed:    rep.failedOps(),
		Metrics:   rep.metrics.values,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// spanPath names the span file of a traced run ("" when spans are not kept).
func spanPath(cfg runConfig, workload string) string {
	if cfg.outDir == "" {
		return ""
	}
	return filepath.Join(cfg.outDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", workload, cfg.seed))
}

// saveSpans writes the recorder's spans to the run's span file.
func saveSpans(cfg runConfig, workload string, rec *recorder) (string, error) {
	path := spanPath(cfg, workload)
	if path == "" {
		return "", nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", err
	}
	return path, writeSpans(path, rec.snapshot())
}
