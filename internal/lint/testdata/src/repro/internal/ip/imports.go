// Fixture for the layering analyzer: the certificate checker replays
// counter-examples through the integer-program IR, so the IR must not
// link the engine or a numeric substrate either.
package ip

import (
	_ "repro/internal/analysis"  // want `must not import repro/internal/analysis`
	_ "repro/internal/arena"     // want `must not import repro/internal/arena`
	_ "repro/internal/clex"      // allowed: shared position type
	_ "repro/internal/interval"  // want `must not import repro/internal/interval`
	_ "repro/internal/linear"    // allowed: the constraint IR is shared vocabulary
	_ "repro/internal/numkernel" // want `must not import repro/internal/numkernel`
	_ "repro/internal/polyhedra" // want `must not import repro/internal/polyhedra`
	_ "repro/internal/zone"      // want `must not import repro/internal/zone`
)
