// Command perfbench is the repository's performance benchmark. It runs one
// of three workloads, checks the program's outputs, and prints one JSON
// result line last:
//
//	bash perfbench/run.sh --workload scale --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of the named workload,
// timed with no instrumentation of its own. With --trace 1 it is the
// per-layer run: every workload runs once untraced and once traced (the
// named one for half of --seconds, the others for an eighth), the traced
// pass times the calls into each layer's public seams from outside, and
// the run prints every per-layer metric, one reconciliation line per
// workload and the tracing overhead. README.md lists the workloads and
// metrics.
package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig parameterises one pass of a workload.
type runConfig struct {
	seed    uint64
	seconds float64
	traced  bool
	smoke   bool
	// spans records the traced pass; nil on an untraced one.
	spans *spanRecorder
	log   io.Writer
}

// pass is what one workload pass measured.
type pass struct {
	attempted, failed uint64
	// problems lists every failed output check.
	problems []string
	// totals are the pass's deterministic counts; a traced pass must
	// reproduce its untraced twin's exactly.
	totals string
	// frames is the frame count the per-frame figures divide by.
	frames float64
	e2e    map[string]metric
	// layers holds the per-layer metrics of a traced pass; offLayers
	// those the per-layer run takes from the untraced twin instead.
	layers, offLayers map[string]metric
	// cpuNsPerFrame and fps feed reconciliation and overhead.
	cpuNsPerFrame, fps float64
	// gc and cpu cover the timed phase, for the runtime.* layer metrics.
	gc  gcStats
	cpu cpuTimes
	// attributed is a traced pass's sum of per-layer medians per frame,
	// each weighted by its calls per frame; attribution names the parts.
	// They reconcile with the same pass's cpuNsPerFrame.
	attributed  float64
	attribution string
}

func (p *pass) fail(format string, args ...any) {
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

// workload is one of the benchmark's workloads; README.md says why each
// exists.
type workload struct {
	name string
	run  func(runConfig) (*pass, error)
}

var workloads = []workload{
	{"scale", runScale},
	{"fleet-arq", runFleetARQ},
	{"ingest-tcp", runIngestTCP},
}

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload to run: scale, fleet-arq or ingest-tcp")
		seed    = fs.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds = fs.Float64("seconds", 30, "how long the timed phase of the workload runs")
		trace   = fs.Int("trace", 0, "1 runs the per-layer (traced) report instead of the end-to-end one")
		smoke   = fs.Bool("smoke", false, "run a seconds-long configuration of the workload with every check")
		root    = fs.String("root", ".", "root of the source checkout (stamped into the result)")
		outDir  = fs.String("out", ".bench_build/perfbench", "directory for span files of traced runs")
	)
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	sel := -1
	for i, w := range workloads {
		if w.name == *name {
			sel = i
		}
	}
	if sel < 0 {
		return 2, fmt.Errorf("unknown -workload %q", *name)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return 2, fmt.Errorf("-seconds must be positive and -trace 0 or 1")
	}
	// The closed loops run one worker; the spare core absorbs the
	// collector and neighbours' noise instead of the measured loop.
	runtime.GOMAXPROCS(runtime.NumCPU())
	log := bufio.NewWriter(stdout)
	defer log.Flush()
	meta := metadata(*root, *name, *seed, *seconds, *trace, *smoke)
	mb, _ := json.Marshal(meta) // strings and numbers only: cannot fail
	fmt.Fprintf(log, "meta %s\n", mb)

	cfg := runConfig{seed: *seed, seconds: *seconds, smoke: *smoke, log: log}
	var res result
	if *trace == 0 {
		res = endToEnd(workloads[sel], cfg)
	} else {
		res = perLayer(sel, cfg, *outDir)
	}
	rb, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Fprintf(log, "%s\n", rb)
	if err := log.Flush(); err != nil {
		return 1, err
	}
	// A failed check is part of the result line, not a crash.
	return 0, nil
}

// endToEnd runs one pass with tracing off and reports its end-to-end
// metrics.
func endToEnd(w workload, cfg runConfig) result {
	p, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(cfg.log, "%s: %v\n", w.name, err)
		return result{Attempted: 1, Failed: 1, Metrics: map[string]metric{}}
	}
	report(cfg.log, w.name, p)
	return result{
		Correct:   len(p.problems) == 0 && p.failed == 0,
		Attempted: p.attempted,
		Failed:    p.failed,
		Metrics:   p.e2e,
	}
}

// perLayer runs every workload untraced and traced, the selected one
// first and longest.
func perLayer(sel int, cfg runConfig, outDir string) result {
	res := result{Correct: true, Metrics: map[string]metric{}}
	order := []int{sel}
	for i := range workloads {
		if i != sel {
			order = append(order, i)
		}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintf(cfg.log, "span output: %v\n", err)
		res.Correct = false
	}
	for k, i := range order {
		w := workloads[i]
		// The whole run takes about 1.5 × --seconds plus set-ups.
		c := cfg
		c.seconds = cfg.seconds / 2
		if k > 0 {
			c.seconds = cfg.seconds / 8
		}
		u, err := w.run(c)
		var t *pass
		if err == nil {
			c.traced = true
			c.spans = newSpanRecorder(400_000)
			t, err = w.run(c)
		}
		if err != nil {
			fmt.Fprintf(cfg.log, "%s: %v\n", w.name, err)
			res.Correct = false
			res.Attempted++
			res.Failed++
			continue
		}
		report(cfg.log, w.name+" (untraced)", u)
		report(cfg.log, w.name+" (traced)", t)
		res.Attempted += u.attempted + t.attempted
		res.Failed += u.failed + t.failed
		if len(u.problems)+len(t.problems) > 0 {
			res.Correct = false
		}
		if u.totals != t.totals {
			res.Correct = false
			fmt.Fprintf(cfg.log, "%s: traced totals differ from untraced\n  untraced: %s\n  traced:   %s\n",
				w.name, u.totals, t.totals)
		}
		for k, v := range t.layers {
			res.Metrics[k] = v
		}
		for k, v := range u.offLayers {
			res.Metrics[k] = v
		}
		addRuntimeLayers(res.Metrics, w.name, u)
		// The open loop pins frames_per_s to the offered rate, so its
		// tracing cost shows in CPU per frame instead.
		over := 100 * (u.fps - t.fps) / u.fps
		basis := "frames_per_s"
		if w.name == "ingest-tcp" {
			over = 100 * (t.cpuNsPerFrame - u.cpuNsPerFrame) / u.cpuNsPerFrame
			basis = "cpu_ns_per_frame"
		}
		res.Metrics[w.name+".trace.overhead_pct"] = metric{over, "%"}
		un := t.cpuNsPerFrame - t.attributed
		res.Metrics[w.name+".recon.stage_sum_ns_per_frame"] = metric{t.attributed, "ns"}
		res.Metrics[w.name+".recon.unattributed_ns_per_frame"] = metric{un, "ns"}
		fmt.Fprintf(cfg.log, "recon %s: traced cpu_ns_per_frame %.1f = %s + unattributed %.1f\n",
			w.name, t.cpuNsPerFrame, t.attribution, un)
		fmt.Fprintf(cfg.log, "trace overhead %s: %.2f%% on %s\n", w.name, over, basis)
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", w.name, cfg.seed))
		if err := c.spans.writeFile(path); err != nil {
			fmt.Fprintf(cfg.log, "span output: %v\n", err)
			res.Correct = false
		}
		c.spans.summary(cfg.log, w.name)
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	return res
}

// addRuntimeLayers reports the Go runtime's share of a pass.
func addRuntimeLayers(m map[string]metric, name string, p *pass) {
	m[name+".runtime.gc_cycles"] = metric{float64(p.gc.cycles), "count"}
	m[name+".runtime.gc_pause_total_ms"] = metric{float64(p.gc.pauseTotal) / 1e6, "ms"}
	m[name+".runtime.alloc_bytes_per_frame"] = metric{ratio(float64(p.gc.allocBytes), p.frames), "B"}
	m[name+".runtime.sys_cpu_share"] = metric{ratio(float64(p.cpu.sys), float64(p.cpu.total())), "ratio"}
}

// report prints a pass's checks and metrics for a human reader.
func report(w io.Writer, name string, p *pass) {
	fmt.Fprintf(w, "%s: attempted %d, failed %d, totals %s\n", name, p.attempted, p.failed, p.totals)
	for _, s := range p.problems {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", s)
	}
	for _, set := range []map[string]metric{p.e2e, p.offLayers, p.layers} {
		keys := make([]string, 0, len(set))
		for k := range set {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "  %-44s %14.6g %s\n", k, set[k].Value, set[k].Unit)
		}
	}
}

// metadata is the environment stamp every result carries.
func metadata(root, name string, seed uint64, seconds float64, trace int, smoke bool) map[string]any {
	return map[string]any{
		"workload":      name,
		"seed":          seed,
		"seconds":       seconds,
		"trace":         trace,
		"smoke":         smoke,
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"go_version":    runtime.Version(),
		"goos_goarch":   runtime.GOOS + "/" + runtime.GOARCH,
		"commit":        gitCommit(root),
		"source_sha256": sourceDigest(root),
		"cpu_model":     cpuModel(),
		"started_utc":   time.Now().UTC().Format(time.RFC3339),
	}
}

// gitCommit resolves HEAD from the checkout's .git directory without
// running git; a checkout exported without .git reports "unknown" and is
// identified by source_sha256 instead.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, r, ok := strings.Cut(line, " "); ok && r == ref {
			return sha
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and module file of the checkout in
// path order, so two results can be matched to the same code even where
// no commit is available.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != root && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); !strings.HasSuffix(n, ".go") && n != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path) // path is under root: cannot fail
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if k, v, ok := strings.Cut(string(line), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
