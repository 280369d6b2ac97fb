package core

// RunSteeringScenario exposes runSteeringScenario to the external test
// package, whose tests need the wrappers of packages that import core.
var RunSteeringScenario = runSteeringScenario
