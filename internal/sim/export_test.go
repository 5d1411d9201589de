package sim

// Hooks for the external sim_test package, which compares the simulator
// against the independent oracle (internal/oracle imports sim, so those
// tests cannot live inside the package).

// ScalarOnly returns cfg with the lane engine disabled for every fault.
func ScalarOnly(cfg Config) Config {
	cfg.scalarOnly = true
	return cfg
}

// CanClassCache reports whether a fault takes the placement-class
// memoization (and may take the lanes).
var CanClassCache = canClassCache

// FourCellFault is a static fault one cell past the class memoization bound.
var FourCellFault = fourCellFault
