package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// runFile is what compare reads from a file of saved benchmark stdout:
// the host header and the results of one or more runs.
type runFile struct {
	host    *host
	metrics map[string][]float64
	units   map[string]string
	runs    int
}

func readRunFile(path string) (*runFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rf := &runFile{metrics: map[string][]float64{}, units: map[string]string{}}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var hdr struct {
			Host *host `json:"host"`
		}
		if json.Unmarshal([]byte(line), &hdr) == nil && hdr.Host != nil {
			if rf.host != nil && len(machineDiff(*rf.host, *hdr.Host)) > 0 {
				return nil, fmt.Errorf("%s mixes results from different hosts", path)
			}
			rf.host = hdr.Host
			continue
		}
		var res result
		if json.Unmarshal([]byte(line), &res) == nil && res.Metrics != nil {
			rf.runs++
			for name, m := range res.Metrics {
				rf.metrics[name] = append(rf.metrics[name], m.Value)
				rf.units[name] = m.Unit
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if rf.host == nil || rf.runs == 0 {
		return nil, fmt.Errorf("%s holds no host header or no result", path)
	}
	return rf, nil
}

// compare prints the median of every metric in two saved result files
// and their ratio. Results from different machines are not compared as
// a speed-up: the host difference is printed instead and the exit code
// is 3.
func compare(w io.Writer, args []string) (int, error) {
	if len(args) != 2 {
		return 2, fmt.Errorf("usage: perfbench compare OLD NEW")
	}
	old, err := readRunFile(args[0])
	if err != nil {
		return 2, err
	}
	cur, err := readRunFile(args[1])
	if err != nil {
		return 2, err
	}
	if d := machineDiff(*old.host, *cur.host); len(d) > 0 {
		fmt.Fprintln(w, "different hosts; the results are not comparable as a speed-up:")
		for _, line := range d {
			fmt.Fprintln(w, "  "+line)
		}
		return 3, nil
	}
	fmt.Fprintf(w, "host: %d cpus, %s, %s\nold: %s (%d runs)\nnew: %s (%d runs)\n",
		cur.host.NumCPU, cur.host.CPUModel, cur.host.GoVersion, old.host.Source, old.runs, cur.host.Source, cur.runs)
	var names []string
	for name := range cur.metrics {
		if _, ok := old.metrics[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-32s %14s %14s %9s\n", "metric", "old median", "new median", "new/old")
	for _, name := range names {
		a, b := median(old.metrics[name]), median(cur.metrics[name])
		r := "-"
		if a != 0 {
			r = fmt.Sprintf("%.3f", b/a)
		}
		fmt.Fprintf(w, "%-32s %14.6g %14.6g %9s %s\n", name, a, b, r, cur.units[name])
	}
	return 0, nil
}
