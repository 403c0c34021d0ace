// Command tables regenerates the qualitative tables of the HP++ paper
// from this repository's scheme and data-structure registry:
//
//	tables -t 1   # Table 1: comparison of robust, widely applicable schemes
//	tables -t 2   # Table 2: applicability of schemes to data structures
//
// Table 2's "benchmark enforced" column is cross-checked against the
// live bench.Applicable predicate so documentation cannot drift from the
// code.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"

	"github.com/gosmr/gosmr/internal/bench"
	"github.com/gosmr/gosmr/internal/scheme"
	"github.com/gosmr/gosmr/internal/smr"
)

func main() {
	table := flag.Int("t", 1, "table number to print (1 or 2)")
	flag.Parse()
	switch *table {
	case 1:
		printTable1()
	case 2:
		printTable2()
	default:
		fmt.Fprintln(os.Stderr, "tables: -t must be 1 or 2")
		os.Exit(2)
	}
}

func printTable1() {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "scheme\timplemented\tsystem requirement\tfailure condition\tfailure handling\tunreclaimed bound")
	for _, s := range smr.Table1() {
		impl := "-"
		if s.Implemented {
			impl = s.Package
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%s\n",
			s.Name, impl, s.SystemRequirement, s.FailureCondition, s.FailureHandling, s.UnreclaimedBound)
	}
	w.Flush()
	fmt.Println("\noverheads:")
	for _, s := range smr.Table1() {
		fmt.Printf("  %-14s %s\n", s.Name, s.Overhead)
	}
}

func printTable2() {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "data structure\treference\tHP\tDEBRA+\tNBR\tRCU/EBR\tHP++/PEBR/VBR\tin this repo")
	for _, a := range smr.Table2() {
		repo := a.InRepo
		if repo == "" {
			repo = "-"
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\n",
			a.DataStructure, a.Reference, mark(a.HP), mark(a.DEBRAp), mark(a.NBR), mark(a.EBR), mark(a.HPP), repo)
	}
	w.Flush()

	fmt.Println("\nlegend: ✓ supported · ✗ not supported · ▲ supported, wait-freedom lost ·")
	fmt.Println("        * significant recovery-design effort · ** code restructuring needed")

	fmt.Println("\nbenchmark-enforced applicability (bench.Applicable):")
	w = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	schemes := scheme.Names(nil)
	fmt.Fprintf(w, "ds\t%s\n", strings.Join(schemes, "\t"))
	for _, ds := range bench.DataStructures() {
		row := []string{ds}
		for _, sch := range schemes {
			if bench.Applicable(ds, sch) {
				row = append(row, "✓")
			} else {
				row = append(row, "✗")
			}
		}
		fmt.Fprintln(w, strings.Join(row, "\t"))
	}
	w.Flush()
}

func mark(s string) string {
	switch s {
	case "yes":
		return "✓"
	case "no":
		return "✗"
	case "lockfree":
		return "▲"
	case "effort":
		return "*"
	case "restructure":
		return "**"
	}
	return s
}
