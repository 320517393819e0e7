package executive

// Test helpers shared with package executive_test, whose tests run whole
// programs through the worker loop.
var (
	BuildCopyChain    = buildCopyChain
	CheckCopyChain    = checkCopyChain
	ConformanceConfig = conformanceConfig
)
