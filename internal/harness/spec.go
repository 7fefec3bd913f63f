package harness

import "fmt"

// experimentDef is one registered experiment: its matrix-and-report builder
// plus its paper-default benchmark set (nil for experiments with a fixed
// internal set).
type experimentDef struct {
	build    func(tl *tally, benchmarks []string) (*Report, error)
	defaults func() []string
}

// experimentRegistry maps every regenerable table and figure to its builder.
// experimentOrder keeps the paper's presentation order for listings.
var (
	experimentOrder = []string{
		"table1", "fig5", "fig6", "fig7", "table2", "table3", "fig8",
		"ext-adaptive", "ext-energy", "ext-wt", "ext-table2-long", "ext-fp",
		"ext-seeds",
	}
	experimentRegistry = map[string]experimentDef{
		"table1": {
			build:    func(*tally, []string) (*Report, error) { return Table1(), nil },
			defaults: func() []string { return nil },
		},
		"fig5":   {build: fig5, defaults: AllBenchmarks},
		"fig6":   {build: fig6, defaults: Fig6Benchmarks},
		"fig7":   {build: fig7, defaults: Fig6Benchmarks},
		"table2": {build: table2, defaults: Table2Benchmarks},
		"table3": {build: table3, defaults: Table3Benchmarks},
		"fig8":   {build: fig8, defaults: AllBenchmarks},
		"ext-adaptive": {
			build:    extAdaptive,
			defaults: func() []string { return []string{"coremark", "quicksort", "picojpeg", "dijkstra"} },
		},
		"ext-energy":      {build: extEnergy, defaults: AllBenchmarks},
		"ext-wt":          {build: extWriteThrough, defaults: AllBenchmarks},
		"ext-table2-long": {build: extTable2Long, defaults: func() []string { return nil }},
		"ext-fp":          {build: extFalsePositives, defaults: AllBenchmarks},
		"ext-seeds":       {build: extSeedVariance, defaults: Table2Benchmarks},
	}
)

// ExperimentNames lists the regenerable experiments in paper order.
func ExperimentNames() []string {
	out := make([]string, len(experimentOrder))
	copy(out, experimentOrder)
	return out
}

// RunNamedExperiment regenerates one experiment by name, with benchmarks
// narrowing the set (nil or empty means the paper default). It is the one
// entry point for regenerating an experiment; every regeneration in the
// process shares one run cache.
func RunNamedExperiment(name string, benchmarks []string) (*Report, error) {
	def, ok := experimentRegistry[name]
	if !ok {
		return nil, fmt.Errorf("harness: unknown experiment %q", name)
	}
	if len(benchmarks) == 0 {
		benchmarks = def.defaults()
	}
	return regenerate(func(tl *tally) (*Report, error) { return def.build(tl, benchmarks) })
}
