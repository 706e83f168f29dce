package main

import (
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// procField returns the value of a "Name:\tvalue" line of a /proc
// status-style file ("" when the file or the field is missing).
func procField(path, name string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == name {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

func cpuModel() string { return procField("/proc/cpuinfo", "model name") }

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	kb, _ := strconv.ParseFloat(strings.TrimSuffix(procField("/proc/self/status", "VmHWM"), " kB"), 64)
	return kb / 1e3
}

// commit names the measured commit when the checkout is a git
// repository ("unknown" otherwise — the driver's checkouts are not).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
