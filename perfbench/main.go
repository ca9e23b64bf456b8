// Command perfbench is the PVN benchmark: seeded workloads over the two
// loops a PVN user feels — the packet path (frame → decode → rule lookup
// → middlebox chain → tunnel/output) and the session lifecycle (DM →
// offer → deploy → install → first packet → renew → roam → teardown).
//
// Usage, from the repository root (run.sh builds the binary, then runs
// it with the same arguments):
//
//	bash perfbench/run.sh --workload fwd-small --seed 1 --seconds 20 --trace 0
//
// Workloads (BENCHMARK.json records why each exists):
//
//   - fwd-small: bare forwarding of 40-byte frames; rate_per_s is the
//     inline path's pkt/s, p50_us the open-loop pipeline latency.
//   - subscriber-mix: 256 subscribers' chained, forwarded and tunnelled
//     traffic; same metrics as fwd-small.
//   - session-churn: device lifecycles against resident populations;
//     rate_per_s is lifecycles/s, p50_us Connect → first packet.
//   - soak: scenario-engine storms to a fixed simulated horizon with
//     every invariant checked; rate_per_s is simulated seconds per wall
//     second, p50_us wall µs per composed op.
//
// With --trace 0 the run carries no instrumentation and reports the
// end-to-end metrics only. Their times are scaled to a reference host by
// a calibration kernel interleaved with the measurement (stats.go), so
// the host's drift does not read as a change of the program. With
// --trace 1 it times its own calls into each layer's public functions,
// folds a CPU profile onto the repo's packages for the work it cannot
// split from outside, reads the counters the layers publish, and
// reports the per-layer metrics next to the end-to-end metric each
// should move.
//
// Every workload generates its inputs from --seed; the system under test
// sees only those inputs. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Metric names and
// units are read from BENCHMARK.json, so the program and the benchmark
// definition cannot drift apart.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// outcome is what one workload run produced.
type outcome struct {
	attempted, failed int64
	// problems lists every correctness check that did not hold.
	problems []string
	e2e      map[string]float64
	layer    map[string]float64
	notes    []string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// check records a failed correctness check.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// params is one invocation's workload input.
type params struct {
	seed    uint64
	seconds time.Duration
	trace   bool
}

type workloadFunc func(p params) (*outcome, error)

var workloads = map[string]workloadFunc{
	"fwd-small":      runFwdSmall,
	"subscriber-mix": runSubscriberMix,
	"session-churn":  runSessionChurn,
	"soak":           runSoak,
}

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchmarkDef struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()

	if err := run(*workload, *seed, *seconds, *traceFlag == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed uint64, seconds float64, traced bool) error {
	const defPath = "BENCHMARK.json"
	raw, err := os.ReadFile(defPath)
	if err != nil {
		return err
	}
	var def benchmarkDef
	if err := json.Unmarshal(raw, &def); err != nil {
		return fmt.Errorf("%s: %w", defPath, err)
	}
	fn := workloads[workload]
	if fn == nil {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}

	fmt.Printf("env workload=%s seed=%d seconds=%g trace=%v gomaxprocs=%d nproc=%d go=%s source=%s shards=%d open_loop_shards=%d\n",
		workload, seed, seconds, traced, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(),
		sourceDigest(), runtime.GOMAXPROCS(0), openLoopShards())

	out, err := fn(params{seed: seed, seconds: time.Duration(seconds * float64(time.Second)), trace: traced})
	if err != nil {
		return err
	}

	defs, values := def.EndToEnd, out.e2e
	if traced {
		defs, values = def.PerLayer, out.layer
	}
	res := result{
		Correct:   len(out.problems) == 0 && out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return fmt.Errorf("workload %s did not measure %s", workload, d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range values {
		if _, ok := res.Metrics[name]; !ok {
			return fmt.Errorf("workload %s measured %s, which BENCHMARK.json does not declare", workload, name)
		}
	}

	for _, n := range out.notes {
		fmt.Println("note", n)
	}
	for _, p := range out.problems {
		fmt.Println("CHECK FAILED", p)
	}
	if traced {
		printLayerReport(def.PerLayer, out.layer)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// printLayerReport prints every per-layer metric beside the end-to-end
// metric it should move (layerMoves), so a reader of a traced run sees
// the attribution without opening the source.
func printLayerReport(defs []metricDef, values map[string]float64) {
	fmt.Println("per-layer metric                       value  unit      moves")
	for _, d := range defs {
		fmt.Printf("  %-34s %12.4g  %-8s  %s\n", d.Name, values[d.Name], d.Unit, layerMoves[d.Name])
	}
}

// sourceDigest identifies the code under test. Benchmark checkouts are
// plain file trees, not git repositories, so the stamp is a SHA-256 over
// every Go source and module file below the working directory (build
// output and hidden directories excluded), in path order.
func sourceDigest() string {
	var paths []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_")) {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum") {
			paths = append(paths, path)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", p, len(data))
		h.Write(data)
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
