// Command testtimes turns a `go test -json` stream into a tier-1 timing
// record: each package's elapsed time, the slowest top-level tests, and
// the toolchain and CPU count they ran with. `make test-times` is the
// canonical invocation. Timings are noisy, so nothing gates on them;
// the committed BENCH_tier1.json keeps them next to each other.
//
// Usage:
//
//	go test -count=1 -json ./... | testtimes -label change
//
// It updates BENCH_tier1.json in the working directory, which holds one
// record per label. Writing a label replaces
// that label's record and keeps the others, so records of a parent
// commit and of a change sit side by side. The command exits non-zero
// when the stream reports a failed test or package.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// slowest is how many tests a record lists.
const slowest = 20

// outFile is the record file, at the repository root.
const outFile = "BENCH_tier1.json"

// event is the part of a test2json event the record reads.
type event struct {
	Time    time.Time
	Action  string
	Package string
	Test    string
	Elapsed float64
}

type pkgTime struct {
	Package  string  `json:"package"`
	Result   string  `json:"result"`
	ElapsedS float64 `json:"elapsed_s"`
}

type testTime struct {
	Test     string  `json:"test"`
	Result   string  `json:"result"`
	ElapsedS float64 `json:"elapsed_s"`
}

// record is one labelled run of the suite.
type record struct {
	Go    string `json:"go"`
	NProc int    `json:"nproc"`
	// WallS spans the first to the last event of the stream.
	WallS    float64    `json:"wall_s"`
	Failed   int        `json:"failed"`
	Packages []pkgTime  `json:"packages"`
	Slowest  []testTime `json:"slowest_tests"`
}

// file is the output: records by label.
type file struct {
	What    string            `json:"what"`
	Records map[string]record `json:"records"`
}

func main() {
	label := flag.String("label", "", "name of this record in "+outFile+" (required)")
	flag.Parse()
	if *label == "" || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: go test -json ./... | testtimes -label <name>")
		os.Exit(2)
	}
	rec, err := summarize(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "testtimes: %v\n", err)
		os.Exit(1)
	}
	if err := update(outFile, *label, rec); err != nil {
		fmt.Fprintf(os.Stderr, "testtimes: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%s: %d packages in %.1f s wall, %d failed; slowest test %s (%.1f s)\n",
		*label, len(rec.Packages), rec.WallS, rec.Failed, rec.Slowest[0].Test, rec.Slowest[0].ElapsedS)
	if rec.Failed > 0 {
		os.Exit(1)
	}
}

// summarize reads a test2json stream into a record.
func summarize(r io.Reader) (record, error) {
	rec := record{Go: runtime.Version(), NProc: runtime.NumCPU()}
	var first, last time.Time
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var ev event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return record{}, fmt.Errorf("reading test events: %w", err)
		}
		if first.IsZero() {
			first = ev.Time
		}
		last = ev.Time
		if ev.Action != "pass" && ev.Action != "fail" {
			continue
		}
		if ev.Action == "fail" {
			rec.Failed++
		}
		switch {
		case ev.Test == "":
			rec.Packages = append(rec.Packages, pkgTime{Package: ev.Package, Result: ev.Action, ElapsedS: ev.Elapsed})
		case !strings.Contains(ev.Test, "/"):
			rec.Slowest = append(rec.Slowest, testTime{Test: ev.Package + "." + ev.Test, Result: ev.Action, ElapsedS: ev.Elapsed})
		}
	}
	if err := sc.Err(); err != nil {
		return record{}, fmt.Errorf("reading test events: %w", err)
	}
	if len(rec.Packages) == 0 || len(rec.Slowest) == 0 {
		return record{}, errors.New("no package or test results in the input; pipe `go test -json` into it")
	}
	rec.WallS = math.Round(last.Sub(first).Seconds()*10) / 10
	sort.Slice(rec.Packages, func(i, j int) bool { return rec.Packages[i].Package < rec.Packages[j].Package })
	sort.SliceStable(rec.Slowest, func(i, j int) bool { return rec.Slowest[i].ElapsedS > rec.Slowest[j].ElapsedS })
	if len(rec.Slowest) > slowest {
		rec.Slowest = rec.Slowest[:slowest]
	}
	return rec, nil
}

// update writes rec under label into the record file at path, keeping
// the other labels.
func update(path, label string, rec record) error {
	f := file{
		What:    "Test timings from `go test -json`, summarized by cmd/testtimes, one record per label. `make test-times` records tier-1: `go test -count=1 -json ./...`.",
		Records: map[string]record{},
	}
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &f); err != nil {
			return fmt.Errorf("reading %s: %w", path, err)
		}
	case !errors.Is(err, fs.ErrNotExist):
		return err
	}
	if f.Records == nil {
		f.Records = map[string]record{}
	}
	f.Records[label] = rec
	data, err = json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
