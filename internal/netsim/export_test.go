package netsim

// EventLoopFits exposes the loop-selection predicate to the external
// test package, which builds design points through core (an importer of
// netsim) without simulating them.
var EventLoopFits = eventLoopFits
