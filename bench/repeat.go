package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// runRepeat runs the workload n times, each in a child process of its
// own (so peak RSS and GC state stay per run) with seeds seed, seed+1,
// ..., and prints each metric's median, quartiles and IQR as a share of
// the median: the run-to-run spread the bounds in BENCHMARK.json are
// set from. It returns the exit code.
func runRepeat(name string, cfg config, trace, n int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	values := make(map[string][]float64)
	units := make(map[string]string)
	code := 0
	for i := 0; i < n; i++ {
		seed := cfg.seed + uint64(i)
		var out bytes.Buffer
		cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
		cmd.Stdout = &out
		cmd.Stderr = os.Stderr
		runErr := cmd.Run()
		lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
		var rep report
		if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
			fmt.Fprintf(os.Stderr, "bench: seed %d: no result (%v, %v)\n", seed, runErr, err)
			return 1
		}
		if runErr != nil || !rep.Correct {
			fmt.Fprintf(os.Stderr, "bench: seed %d: %d of %d failed\n", seed, rep.Failed, rep.Attempted)
			code = 1
		}
		for k, m := range rep.Metrics {
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
		}
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("%-36s %14s %14s %14s %8s  (%d runs of %s)\n", "metric", "q1", "median", "q3", "iqr/med", n, name)
	for _, k := range names {
		q1, med, q3 := quartiles(values[k])
		fmt.Printf("%-36s %14.6g %14.6g %14.6g %7.1f%%  %s\n", k, q1, med, q3, 100*ratio(q3-q1, med), units[k])
	}
	return code
}
