package modelreg

// Update exposes the -update flag to the external test package, which
// shares this test binary and so cannot define the flag a second time.
var Update = updateFlag
