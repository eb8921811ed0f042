// Command report renders the campaign report from saved campaign
// results (paperdata.Report): Table I, the measured Tables II-IV, the
// paper-vs-measured shape checks when the results are the paper grid,
// the secondary analysis, and one verdict line per case.
//
// Usage:
//
//	report -in campaign_results.json -out report.md
package main

import (
	"flag"
	"fmt"
	"os"

	"uavres/internal/core"
	"uavres/internal/paperdata"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		in  = flag.String("in", "campaign_results.json", "campaign results JSON")
		out = flag.String("out", "", "output Markdown path (default: stdout)")
	)
	flag.Parse()

	results, err := core.LoadResultsFile(*in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "report:", err)
		return 1
	}
	report := paperdata.Report(results)
	if *out == "" {
		fmt.Print(report)
		return 0
	}
	if err := os.WriteFile(*out, []byte(report), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "report:", err)
		return 1
	}
	fmt.Printf("report written to %s\n", *out)
	return 0
}
