package shardrpc

// Protocol is the shard tier's frame protocol, for the external tests that
// play a peer from another build.
var Protocol = protocol
