package timewarp

// Every run this package's tests make verifies the clusters' log order
// after each rollback and prune; BenchmarkRollbackHistory, which measures
// what that scan would hide, switches it off around itself.
func init() { CheckInvariants = true }
