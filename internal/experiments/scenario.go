package experiments

import (
	"fmt"
	"strings"
	"sync"

	"dsa/internal/scenario"
)

// Declarative scenarios register at runtime (a file was loaded), unlike
// the compiled-in sweeps' init-time registry, so they get their own
// locked map. Their cells carry the scenario/cell wire spec — source
// included — so they distribute across worker pools that have never
// seen the file.
var (
	scenarioMu   sync.Mutex
	scenarioDefs = map[string]*sweepDef{} // by wire id
	scenarioIDs  []string                 // registration order, for ambiguity reporting
)

// RegisterScenario makes a compiled scenario runnable as a battery
// experiment and returns its wire id ("scenario/<name>@<hash>").
// Stream/Run then accept either the full id or, when unambiguous, the
// bare scenario name. Registration is idempotent: the id embeds the
// source hash, so registering the same file twice is a no-op and two
// different files can never collide quietly — even under one name they
// get distinct ids (though running a *bare* name shared by both is
// rejected as ambiguous).
func RegisterScenario(s *scenario.Scenario) string {
	scenarioMu.Lock()
	defer scenarioMu.Unlock()
	id := s.ID()
	if _, ok := scenarioDefs[id]; ok {
		return id
	}
	scenarioDefs[id] = &sweepDef{
		id:     id,
		title:  s.Title,
		header: s.Header(),
		build: func(sc Config) []cell {
			cells := s.Cells(sc.Seed)
			out := make([]cell, len(cells))
			for i, cl := range cells {
				out[i] = cell{key: cl.Key, run: cl.Run}
			}
			return out
		},
		spec: s.Spec,
	}
	scenarioIDs = append(scenarioIDs, id)
	return id
}

// scenarioByName resolves a registered scenario by full wire id or bare
// scenario name. A miss returns (nil, nil) so byName can fall through
// to its own error; a bare name shared by two registered scenarios is a
// real error — neither file should win quietly.
func scenarioByName(name string) (*sweepDef, error) {
	scenarioMu.Lock()
	defer scenarioMu.Unlock()
	if d := scenarioDefs[name]; d != nil {
		return d, nil
	}
	prefix := "scenario/" + strings.ToLower(name) + "@"
	var matches []string
	for _, id := range scenarioIDs {
		if strings.HasPrefix(id, prefix) {
			matches = append(matches, id)
		}
	}
	if len(matches) > 1 {
		return nil, fmt.Errorf("scenario name %q is ambiguous (%s); use the full id", name, strings.Join(matches, ", "))
	}
	if len(matches) == 1 {
		return scenarioDefs[matches[0]], nil
	}
	return nil, nil
}
