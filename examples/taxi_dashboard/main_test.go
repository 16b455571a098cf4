package main

// The taxi dashboard's stdout, pinned: baseline and Maliva times for each
// panel.
func Example() {
	main()
	// Output:
	// training the MDP agent on the taxi workload...
	//
	// panel                                        baseline             maliva explored
	// Midtown pickups, New Year's Eve              382 ms ✓        542 ms ✓      8
	// JFK long-haul trips, July 2012             11815 ms ✗       1936 ms ✗      8
	// City-wide short hops, June 2011            22983 ms ✗      23143 ms ✗      8
	//
	// (budget 1000 ms; ✓ = served within budget)
}
