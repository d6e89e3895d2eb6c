package analysis

// Analyzers is the seedlint suite: one analyzer per engine invariant,
// in the order they are documented in DESIGN.md ("Static analysis").
var Analyzers = []*Analyzer{
	MmapClose,
	CtxSelect,
	KernelParity,
	ErrClose,
	Directive,
}

// ByName returns the named analyzer, or nil.
func ByName(name string) *Analyzer {
	for _, a := range Analyzers {
		if a.Name == name {
			return a
		}
	}
	return nil
}
