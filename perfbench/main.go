// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload through the library's public layers — instance build,
// embedding, input generation, fault plans, simulation and the trace
// consumers — on one goroutine, checks every operation's output, and
// prints the metrics BENCHMARK.json declares, last as one JSON line.
// README.md describes the workloads and what each metric is for.
//
//	perfbench -workload busy-q31 -seed 1 -seconds 30 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	name := flag.String("workload", "", "workload to run: scorecard, busy-q31, latency-sweep or chaos-q11")
	seed := flag.Int64("seed", 1, "seed for the generated input vectors")
	seconds := flag.Float64("seconds", 30, "measurement budget in seconds; at least one pass always runs")
	trace := flag.Int("trace", 0, "1 for the traced run, which reports per-layer metrics instead of end-to-end ones")
	out := flag.String("out", ".", "directory the traced run writes its spans to")
	flag.Parse()
	if err := mainErr(*name, *seed, *seconds, *trace, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(name string, seed int64, seconds float64, trace int, out string) error {
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace %d, want 0 or 1", trace)
	}
	s, err := lookup(name)
	if err != nil {
		return err
	}
	fmt.Printf("workload %s seed %d trace %d\n", s.name, seed, trace)
	r, err := run(s, seed, seconds, trace == 1, out, os.Stdout)
	if err != nil {
		return err
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
