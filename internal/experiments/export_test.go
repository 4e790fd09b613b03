package experiments

// Hooks for the external test package, which may import the campaign
// package (an import cycle for this package's own tests).
var (
	SessionKey     = Spec.key
	WorkloadDigest = workloadDigest
)
