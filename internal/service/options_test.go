package service

import (
	"reflect"
	"strings"
	"testing"

	"seedblast/internal/core"
	"seedblast/internal/stats"
	"seedblast/internal/translate"
)

func ptr[T any](v T) *T { return &v }

// TestWireOptionsReachSearcher is the plumbing contract of the wire
// options: the rows are keyed by OptionsJSON's Go field names and the
// field list is enumerated by reflection, so a field added without a
// row fails. Each row sets one non-default value and names what it
// must turn into on the built Searcher's resolved Options.
func TestWireOptionsReachSearcher(t *testing.T) {
	rows := map[string]struct {
		set  OptionsJSON
		want func(core.Options) bool
	}{
		"Engine":        {OptionsJSON{Engine: "rasc"}, func(o core.Options) bool { return o.Engine == core.EngineRASC }},
		"N":             {OptionsJSON{N: ptr(9)}, func(o core.Options) bool { return o.N == 9 }},
		"Threshold":     {OptionsJSON{Threshold: ptr(33)}, func(o core.Options) bool { return o.UngappedThreshold == 33 }},
		"MaxEValue":     {OptionsJSON{MaxEValue: ptr(7.5)}, func(o core.Options) bool { return o.Gapped.MaxEValue == 7.5 }},
		"Workers":       {OptionsJSON{Workers: 3}, func(o core.Options) bool { return o.Workers == 3 }},
		"ShardSize":     {OptionsJSON{ShardSize: 5}, func(o core.Options) bool { return o.Pipeline.ShardSize == 5 }},
		"GeneticCode":   {OptionsJSON{GeneticCode: "mito"}, func(o core.Options) bool { return o.GeneticCode == translate.VertebrateMitoCode }},
		"MaxCandidates": {OptionsJSON{MaxCandidates: ptr(17)}, func(o core.Options) bool { return o.MaxCandidates == 17 }},
		"SearchSpace": {OptionsJSON{SearchSpace: &SearchSpaceJSON{DBLen: 1234, DBSeqs: 5}}, func(o core.Options) bool {
			return o.SearchSpaceOverride == stats.SearchSpace{DBLen: 1234, DBSeqs: 5}
		}},
	}

	def := core.DefaultOptions()
	typ := reflect.TypeOf(OptionsJSON{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		row, ok := rows[name]
		if !ok {
			t.Errorf("OptionsJSON.%s has no row: add one that proves the field reaches Searcher.Options()", name)
			continue
		}
		if reflect.ValueOf(row.set).Field(i).IsZero() {
			t.Errorf("row %s does not set OptionsJSON.%s", name, name)
		}
		if row.want(def) {
			t.Errorf("row %s: its value is the default, so the row proves nothing", name)
		}
		opts, err := row.set.CoreOptions()
		if err != nil {
			t.Errorf("row %s: %v", name, err)
			continue
		}
		s, err := core.NewSearcher(opts...)
		if err != nil {
			t.Errorf("row %s: %v", name, err)
			continue
		}
		if !row.want(s.Options()) {
			t.Errorf("OptionsJSON.%s did not reach the Searcher: %+v", name, s.Options())
		}
	}
	if len(rows) != typ.NumField() {
		t.Errorf("%d rows for %d OptionsJSON fields: a row names no field", len(rows), typ.NumField())
	}
	// The retired "multi" engine is refused (a 400 at submit), naming
	// the engines that exist.
	if _, err := (OptionsJSON{Engine: "multi"}).CoreOptions(); err == nil ||
		!strings.Contains(err.Error(), "cpu") || !strings.Contains(err.Error(), "rasc") {
		t.Errorf(`engine "multi": CoreOptions error = %v, want one naming cpu and rasc`, err)
	}
}
