package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// host identifies the machine and the code a result was measured on.
// compare refuses to call a difference between two results a speed-up
// when any field but Source/Commit differs: a diff across hosts says
// nothing about the code.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	// Commit is the git commit of the checkout when it is a git
	// repository, "unknown" otherwise.
	Commit string `json:"commit"`
	// Source is a digest of the Go sources and go.mod files under the
	// root, so results from a checkout without git history still name
	// the code they measured.
	Source string `json:"source_sha256"`
}

func readHost(root string) host {
	return host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel("/proc/cpuinfo"),
		Commit:     gitCommit(root),
		Source:     sourceDigest(root),
	}
}

// machineDiff lists the fields that make two hosts different machines
// (the code identity fields are expected to differ between commits).
func machineDiff(a, b host) []string {
	var d []string
	add := func(name, x, y string) {
		if x != y {
			d = append(d, name+": "+x+" vs "+y)
		}
	}
	add("nproc", strconv.Itoa(a.NumCPU), strconv.Itoa(b.NumCPU))
	add("gomaxprocs", strconv.Itoa(a.GOMAXPROCS), strconv.Itoa(b.GOMAXPROCS))
	add("goos", a.GOOS, b.GOOS)
	add("goarch", a.GOARCH, b.GOARCH)
	add("go_version", a.GoVersion, b.GoVersion)
	add("cpu_model", a.CPUModel, b.CPUModel)
	return d
}

func cpuModel(path string) string {
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves HEAD from the .git directory without running git.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}

// sourceDigest hashes every .go and go.mod file under root (skipping
// hidden and build directories) in path order.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || d.Name() == "go.mod" {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		h.Write([]byte(filepath.ToSlash(p)))
		h.Write([]byte{0})
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
