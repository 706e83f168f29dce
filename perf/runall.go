package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// run is one single-workload run as a results file records it.
type run struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

// resultsFile is what -out writes and -compare reads.
type resultsFile struct {
	Header map[string]string `json:"header"`
	Runs   []run             `json:"runs"`
}

// runAll measures every workload, each in a child process of its own
// (so peak memory and set-up belong to one workload), sequentially:
// an untraced run for the end-to-end metrics, then a traced run for
// the per-layer ones; -repeat repeats the pair with the next seed.
func runAll(o options, repeat int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := resultsFile{Header: map[string]string{
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"commit":     commit(),
		"seed":       strconv.FormatInt(o.seed, 10),
		"seconds":    strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"repeat":     strconv.Itoa(repeat),
		"quick":      strconv.FormatBool(o.quick),
	}}
	var failed []string
	for _, w := range workloadNames {
		for k := 0; k < repeat; k++ {
			for trace := 0; trace <= 1; trace++ {
				seed := o.seed + int64(k)
				args := []string{"--workload", w, "--seed", strconv.FormatInt(seed, 10),
					"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace)}
				if o.quick {
					args = append(args, "-quick")
				}
				res, err := runChild(self, args)
				if err != nil {
					failed = append(failed, fmt.Sprintf("%s (seed %d, trace %d): %v", w, seed, trace, err))
				}
				if res != nil {
					file.Runs = append(file.Runs, run{Workload: w, Seed: seed, Trace: trace, result: *res})
				}
			}
		}
	}
	if out != "" {
		data, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d run(s) failed:\n  %s", len(failed), strings.Join(failed, "\n  "))
	}
	return nil
}

// runChild runs one single-workload child, passes its output through
// and parses the result object on its last line. It returns once the
// child has exited.
func runChild(self string, args []string) (*result, error) {
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	var buf bytes.Buffer
	cmd.Stdout = &buf
	runErr := cmd.Run()
	var last string
	sc := bufio.NewScanner(&buf)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if last != "" {
			fmt.Println(last)
		}
		last = sc.Text()
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		if last != "" {
			fmt.Println(last)
		}
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("no result object on the last line: %v", err)
	}
	if !res.Correct {
		return &res, fmt.Errorf("%d of %d operations failed", res.Failed, res.Attempted)
	}
	return &res, runErr
}
