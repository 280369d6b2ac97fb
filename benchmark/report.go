package main

// Running every workload, the result file, and -compare.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"text/tabwriter"
)

// envStamp says where a result file's numbers were taken.
type envStamp struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
}

func stampEnv() envStamp {
	s := envStamp{Commit: "unknown", GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Kernel: "unknown"}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		s.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		s.Kernel = strings.TrimSpace(string(b))
	}
	return s
}

// metricSeries is one end-to-end metric of one workload over the
// repetitions: the reported value is the median, the raw values stay.
type metricSeries struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Raw    []float64 `json:"raw"`
}

type workloadReport struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	EndToEnd  map[string]metricSeries `json:"end_to_end"`
	PerLayer  map[string]metricValue  `json:"per_layer"`
}

type resultFile struct {
	Env       envStamp                  `json:"env"`
	Seed      int64                     `json:"seed"`
	Seconds   float64                   `json:"seconds"`
	Reps      int                       `json:"reps"`
	Workloads map[string]workloadReport `json:"workloads"`
}

// runChild re-executes this binary for one run, so every repetition has
// its own address space and its own peak_rss_mb.
func runChild(workload string, seed int64, seconds float64, trace int, traceDir string) (runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return runResult{}, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace), "-trace-dir", traceDir)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return runResult{}, fmt.Errorf("%s (trace %d): %w", workload, trace, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return runResult{}, fmt.Errorf("%s (trace %d): reading result: %w", workload, trace, err)
	}
	return res, nil
}

// runAll runs every workload reps times untraced and once traced, prints
// every metric by name with its unit, writes the result file, and returns
// the exit code: 1 when any operation or output check failed.
func runAll(seed int64, seconds float64, reps int, outPath, traceDir string) int {
	file := resultFile{Env: stampEnv(), Seed: seed, Seconds: seconds, Reps: reps,
		Workloads: map[string]workloadReport{}}
	allCorrect := true
	for _, name := range workloadNames {
		rep := workloadReport{Correct: true, EndToEnd: map[string]metricSeries{}}
		raw := map[string][]float64{}
		for r := 0; r < reps; r++ {
			fmt.Fprintf(os.Stderr, "%s: untraced run %d of %d\n", name, r+1, reps)
			res, err := runChild(name, seed, seconds, 0, traceDir)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			rep.Correct = rep.Correct && res.Correct
			rep.Attempted += res.Attempted
			rep.Failed += res.Failed
			for m, v := range res.Metrics {
				raw[m] = append(raw[m], v.Value)
			}
		}
		for _, spec := range endToEndSpecs {
			vs := raw[spec.Name]
			s := metricSeries{Unit: spec.Unit, Median: median(vs), Raw: vs}
			if len(vs) > 0 {
				s.Min, s.Max = slices.Min(vs), slices.Max(vs)
			}
			rep.EndToEnd[spec.Name] = s
		}
		fmt.Fprintf(os.Stderr, "%s: traced run\n", name)
		res, err := runChild(name, seed, seconds, 1, traceDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		rep.Correct = rep.Correct && res.Correct
		rep.Attempted += res.Attempted
		rep.Failed += res.Failed
		rep.PerLayer = res.Metrics
		file.Workloads[name] = rep
		allCorrect = allCorrect && rep.Correct
	}
	printReport(os.Stdout, file)
	if outPath != "" {
		data, err := json.MarshalIndent(file, "", "  ")
		if err == nil {
			if err = os.MkdirAll(filepath.Dir(outPath), 0o755); err == nil {
				err = os.WriteFile(outPath, append(data, '\n'), 0o644)
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: writing result file:", err)
			return 1
		}
		fmt.Fprintln(os.Stderr, "wrote", outPath)
	}
	if !allCorrect {
		fmt.Fprintln(os.Stderr, "benchmark: FAILED: operations or output checks failed (see failed_share)")
		return 1
	}
	return 0
}

func printReport(w io.Writer, file resultFile) {
	fmt.Fprintf(w, "commit %s  %s  nproc %d  GOMAXPROCS %d  kernel %s  seed %d  seconds %g  reps %d\n\n",
		file.Env.Commit, file.Env.GoVersion, file.Env.NumCPU, file.Env.GOMAXPROCS, file.Env.Kernel,
		file.Seed, file.Seconds, file.Reps)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "END TO END (untraced)\tworkload\tmedian\tmin\tmax\tunit")
	for _, spec := range endToEndSpecs {
		for _, name := range workloadNames {
			s := file.Workloads[name].EndToEnd[spec.Name]
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.6g\t%s\n", spec.Name, name, s.Median, s.Min, s.Max, s.Unit)
		}
	}
	for _, name := range workloadNames {
		r := file.Workloads[name]
		share := 0.0
		if r.Attempted > 0 {
			share = float64(r.Failed) / float64(r.Attempted)
		}
		fmt.Fprintf(tw, "failed_share\t%s\t%g\t\t\tshare (%d of %d)\n", name, share, r.Failed, r.Attempted)
	}
	tw.Flush()
	fmt.Fprintln(w)
	tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "PER LAYER (traced)\tunit\t%s\n", strings.Join(workloadNames, "\t"))
	for _, spec := range perLayerSpecs {
		fmt.Fprintf(tw, "%s\t%s", spec.Name, spec.Unit)
		for _, name := range workloadNames {
			fmt.Fprintf(tw, "\t%.6g", file.Workloads[name].PerLayer[spec.Name].Value)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// exactMetrics must repeat exactly between two result files: simulated
// results and failures have no noise band.
var exactMetrics = []string{"sim_makespan_s", "scaleout_speedup", "failed_share"}

// compareFiles prints each (metric, workload) delta of b against a with
// its bound and returns 1 when any is worse beyond it.
func compareFiles(aPath, bPath string, w io.Writer) int {
	var a, b resultFile
	for _, f := range []struct {
		path string
		into *resultFile
	}{{aPath, &a}, {bPath, &b}} {
		data, err := os.ReadFile(f.path)
		if err == nil {
			err = json.Unmarshal(data, f.into)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", f.path, err)
			return 2
		}
	}
	fmt.Fprintf(w, "base: %s (%s, GOMAXPROCS %d)\nnew:  %s (%s, GOMAXPROCS %d)\n\n",
		a.Env.Commit, a.Env.GoVersion, a.Env.GOMAXPROCS, b.Env.Commit, b.Env.GoVersion, b.Env.GOMAXPROCS)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tworkload\tbase\tnew\tchange\tbound\tverdict")
	regressions := 0
	for _, spec := range endToEndSpecs {
		for _, name := range workloadNames {
			base, cur := a.Workloads[name].EndToEnd[spec.Name].Median, b.Workloads[name].EndToEnd[spec.Name].Median
			verdict := "ok"
			change := 0.0
			switch {
			case base == 0 || cur == 0:
				verdict = "MISSING"
				regressions++
			default:
				change = (cur - base) / base
				worse := change
				if spec.Better == "higher" {
					worse = -change
				}
				if worse > spec.Bound {
					verdict = "REGRESSION"
					regressions++
				}
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.0f%%\t%s\n",
				spec.Name, name, base, cur, 100*change, 100*spec.Bound, verdict)
		}
	}
	for _, m := range exactMetrics {
		for _, name := range workloadNames {
			base, cur := a.Workloads[name].PerLayer[m].Value, b.Workloads[name].PerLayer[m].Value
			verdict := "ok"
			if base != cur {
				verdict = "CHANGED"
				regressions++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.9g\t%.9g\t\texact\t%s\n", m, name, base, cur, verdict)
		}
	}
	tw.Flush()
	if regressions > 0 {
		fmt.Fprintf(w, "\n%d (metric, workload) pairs beyond their bound\n", regressions)
		return 1
	}
	fmt.Fprintln(w, "\nevery (metric, workload) pair within its bound")
	return 0
}
