package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// profileStacks reads a CPU profile file through `go tool pprof -traces`,
// which prints every sample's count and stack as plain function names,
// leaf first. It returns one stack per sample block with its count.
func profileStacks(path string) ([]profSample, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", "-symbolize=none", "-sample_index=samples", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return parseTraces(out)
}

type profSample struct {
	count int64
	funcs []string // leaf first
}

// parseTraces parses `pprof -traces` output: blocks separated by
// "-----------+---" rules, each starting with "<count>   <leaf function>"
// and continued by one indented caller per line.
func parseTraces(out []byte) ([]profSample, error) {
	var samples []profSample
	inBlock := false
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			inBlock = true
			samples = append(samples, profSample{})
			continue
		}
		f := strings.Fields(line)
		if !inBlock || len(f) == 0 {
			continue
		}
		s := &samples[len(samples)-1]
		if s.funcs == nil {
			n, err := strconv.ParseInt(f[0], 10, 64)
			if err != nil || len(f) < 2 {
				return nil, fmt.Errorf("pprof -traces: unexpected sample line %q", line)
			}
			s.count, f = n, f[1:]
		}
		s.funcs = append(s.funcs, f[0])
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// The rule after the last block opens an empty one.
	if n := len(samples); n > 0 && samples[n-1].funcs == nil {
		samples = samples[:n-1]
	}
	return samples, nil
}

// layerPrefix is the import-path prefix of the program's layers.
const layerPrefix = "grads/internal/"

// layerOf returns the grads/internal package a function belongs to, or "".
func layerOf(fn string) string {
	if !strings.HasPrefix(fn, layerPrefix) {
		return ""
	}
	rest := fn[len(layerPrefix):]
	if i := strings.IndexByte(rest, '.'); i >= 0 {
		return rest[:i]
	}
	return rest
}

// layerShares is the per-layer split of one profile. cum[l] is the share
// of samples with any frame of layer l on the stack; self[l] the share
// whose innermost grads/internal frame is in l (standard-library and
// runtime callees, such as sorting, maps and allocation, are charged to
// the layer that called them).
type layerShares struct {
	samples int64
	cum     map[string]float64
	self    map[string]float64
}

// attribute splits a profile's samples across the program's layers.
func attribute(samples []profSample) layerShares {
	cum, self := map[string]int64{}, map[string]int64{}
	var total int64
	seen := map[string]bool{}
	for _, s := range samples {
		total += s.count
		clear(seen)
		owner := ""
		for _, fn := range s.funcs {
			l := layerOf(fn)
			if l == "" {
				continue
			}
			if owner == "" {
				owner = l
			}
			if !seen[l] {
				seen[l] = true
				cum[l] += s.count
			}
		}
		if owner != "" {
			self[owner] += s.count
		}
	}
	out := layerShares{samples: total, cum: map[string]float64{}, self: map[string]float64{}}
	if total == 0 {
		return out
	}
	for l, n := range cum {
		out.cum[l] = float64(n) / float64(total)
	}
	for l, n := range self {
		out.self[l] = float64(n) / float64(total)
	}
	return out
}

// ranked returns the layers of m by descending share (name breaks ties).
func ranked(m map[string]float64) []string {
	ls := make([]string, 0, len(m))
	for l := range m {
		ls = append(ls, l)
	}
	sort.Slice(ls, func(i, j int) bool {
		if m[ls[i]] != m[ls[j]] {
			return m[ls[i]] > m[ls[j]]
		}
		return ls[i] < ls[j]
	})
	return ls
}
