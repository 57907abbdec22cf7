package experiments

import (
	"repro/internal/workload"
)

// SuiteNames lists the built-in suites by wire name, in registry order.
// A Lab extended with external specs accepts more: use Lab.SuiteNames.
func SuiteNames() []string {
	return workload.Builtin().Names()
}

// SuiteNames lists every suite this Lab can measure by wire name, in
// registration order (built-ins first). These are the values a serving
// request's "suite" field accepts.
func (l *Lab) SuiteNames() []string {
	return l.registry().Names()
}

// Suites returns the Lab's registered suite definitions in registration
// order.
func (l *Lab) Suites() []*workload.SuiteDef {
	return l.registry().Suites()
}

// Suite resolves one of the Lab's suites by wire name.
func (l *Lab) Suite(wire string) (*workload.SuiteDef, bool) {
	return l.registry().Lookup(wire)
}

// externalSuites lists the registered non-built-in suites that take part
// in the characterization drivers (table3/table4/fig1/fig2). Sampled
// suites are excluded — they are measurement pools, not
// characterization sets, exactly like the built-in individual-.NET pool.
func (l *Lab) externalSuites() []*workload.SuiteDef {
	var out []*workload.SuiteDef
	for _, def := range l.registry().Suites() {
		if !def.Builtin && !def.Measurement.Sampled {
			out = append(out, def)
		}
	}
	return out
}
