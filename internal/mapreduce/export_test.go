package mapreduce

// KVCost exposes the shuffle's per-pair charge so the budget sweep can tell
// which budgets a job exceeds.
var KVCost = kvCost
