// Fixture for the layering analyzer: the schedule package is a leaf
// that must not link any analysis layer.
package schedule

import (
	"sort"

	_ "repro/internal/analysis" // want `must not import repro/internal/analysis`
)

var _ = sort.Strings
