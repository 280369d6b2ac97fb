// Command benchmark is the repository's benchmark: five workloads through
// the real stack, every end-to-end metric by name with its unit, output
// checks, and — in a traced run — a per-layer budget from seam wrappers
// and isolated probes. README.md in this directory says what each workload
// and metric is for.
//
//	go run ./benchmark -workload launch-sync -seed 1 -seconds 10 -trace 0
//	    one run; the last line of standard output is its result as JSON
//	go run ./benchmark [-reps 3] [-out .bench_out/result.json]
//	    every workload, untraced -reps times and traced once, as a table
//	go run ./benchmark -compare a.json b.json
//	    each (metric, workload) delta against its bound; exit 1 beyond it
//	go run ./benchmark -update-golden
//	    regenerate golden/oversub.json from the code as it is
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	if len(os.Args) == 2 && os.Args[1] == keepAwakeFlag {
		return keepAwakeChild()
	}
	var (
		workloadName = flag.String("workload", "", "run this one workload and print its result as one JSON line (default: run them all)")
		seed         = flag.Int64("seed", 1, "drives array contents and op order, never op counts or sizes")
		seconds      = flag.Float64("seconds", 10, "sizes the fixed op list: about this long on the reference box")
		trace        = flag.Int("trace", 0, "1 wraps the seams and runs the probes, reporting the per-layer metrics")
		outDir       = flag.String("trace-dir", ".bench_out", "directory for the Chrome trace of a traced run (\"\" writes none)")
		reps         = flag.Int("reps", 3, "untraced repetitions per workload when running them all")
		out          = flag.String("out", ".bench_out/result.json", "result file when running them all")
		compare      = flag.Bool("compare", false, "compare two result files given as arguments")
		updateGolden = flag.Bool("update-golden", false, "rewrite golden/oversub.json from the current code")
	)
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare base.json new.json")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout)
	case *updateGolden:
		if err := writeGolden(goldenPath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	case *workloadName == "":
		return runAll(*seed, *seconds, *reps, *out, *outDir)
	}

	stopKeepAwake := startKeepAwake()
	res, err := runOne(runConfig{workload: *workloadName, seed: *seed, seconds: *seconds,
		trace: *trace != 0, outDir: *outDir})
	stopKeepAwake()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %d of %d operations or output checks failed\n",
			*workloadName, res.Failed, res.Attempted)
	}
	return 0
}
