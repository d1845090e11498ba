package netsim

// TopologyFaultPlan hands the external tests the sweep's fault plans,
// which the package derives for itself.
var TopologyFaultPlan = topologyFaultPlan
