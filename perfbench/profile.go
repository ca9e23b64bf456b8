package main

// CPU-profile folding, for the work the benchmark cannot time from
// outside: what the dataplane's workers do inside the pipeline, and what
// the overlay does inside the scenario engine's Soak. The traced run
// records a runtime/pprof CPU profile under .bench_build/ and reads each
// sample's stack back with `go tool pprof -traces`, from the toolchain
// that built the benchmark.

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"
)

// cpuProfile holds one entry per sample stack: its CPU time and the
// function names on it.
type cpuProfile struct {
	samples []profSample
	total   time.Duration
}

type profSample struct {
	cpu   time.Duration
	funcs []string
}

type profiler struct {
	path string
	f    *os.File
}

func startProfile() (*profiler, error) {
	dir := ".bench_build"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	p := &profiler{path: filepath.Join(dir, "perfbench-cpu.pprof")}
	f, err := os.Create(p.path)
	if err != nil {
		return nil, err
	}
	p.f = f
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return p, nil
}

func (p *profiler) stop() (*cpuProfile, error) {
	pprof.StopCPUProfile()
	if err := p.f.Close(); err != nil {
		return nil, err
	}
	defer os.Remove(p.path)
	out, err := exec.Command("go", "tool", "pprof", "-traces", p.path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return parseTraces(out)
}

// parseTraces reads `pprof -traces` output: stacks separated by lines of
// dashes, each starting with its CPU time before the leaf function.
func parseTraces(out []byte) (*cpuProfile, error) {
	prof := &cpuProfile{}
	var cur *profSample
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "-----------+"):
			cur = nil
		case cur == nil && strings.HasPrefix(line, " "):
			fields := strings.Fields(line)
			if len(fields) < 2 {
				continue
			}
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof trace line %q: %w", line, err)
			}
			prof.samples = append(prof.samples, profSample{cpu: d, funcs: []string{fields[1]}})
			prof.total += d
			cur = &prof.samples[len(prof.samples)-1]
		case cur != nil && strings.TrimSpace(line) != "":
			cur.funcs = append(cur.funcs, strings.Fields(line)[0])
		}
	}
	if len(prof.samples) == 0 {
		return nil, fmt.Errorf("CPU profile has no samples")
	}
	return prof, nil
}

// cpu returns the CPU time of samples whose stack has, for every
// pattern group, a frame matching one of the group's patterns. A pattern
// ending in "." matches a package prefix, any other a whole function.
func (p *cpuProfile) cpu(groups ...[]string) time.Duration {
	var d time.Duration
	for _, s := range p.samples {
		all := true
		for _, g := range groups {
			all = all && s.has(g)
		}
		if all {
			d += s.cpu
		}
	}
	return d
}

// share is cpu(groups...) over the profile's total.
func (p *cpuProfile) share(groups ...[]string) float64 {
	return p.cpu(groups...).Seconds() / p.total.Seconds()
}

func (s *profSample) has(patterns []string) bool {
	for _, f := range s.funcs {
		for _, pat := range patterns {
			if f == pat || (strings.HasSuffix(pat, ".") && strings.HasPrefix(f, pat)) {
				return true
			}
		}
	}
	return false
}
