package scenario

// PodShardHosts is the size from which a fat-tree is built on its pod
// plan, for the tests that stand on either side of it.
const PodShardHosts = podShardHosts

// SingleEngine returns the topology kept on one engine at any size. A
// large fat-tree asked for one partition is sharded too, so a suite that
// compares "serial" with "partitioned" would compare shards with shards;
// this is the leg that is not.
func SingleEngine(t FatTreeTopology) FatTreeTopology {
	t.singleEngine = true
	return t
}
