package main

// The quality-aware example's stdout, pinned: both rewriters' decisions on
// the impossible and the easy query.
func Example() {
	main()
	// Output:
	// training quality-aware agents (one-stage, two-stage)...
	//
	// impossible query (viable exact plans: 0, baseline 1341 ms)
	//   1-stage MDP (Accurate-QTE)   → auto+limit0.032% total    253 ms, viable=true  quality=0.05
	//   2-stage MDP (Accurate-QTE)   → auto+limit0.16%  total    393 ms, viable=true  quality=0.05
	//
	// easy query (viable exact plans: 3, baseline 340 ms)
	//   1-stage MDP (Accurate-QTE)   → idx{0,2}         total    343 ms, viable=true  quality=1.00
	//   2-stage MDP (Accurate-QTE)   → idx{0,2}         total    333 ms, viable=true  quality=1.00
	//
	// two-stage never gives up result quality when an exact viable plan exists;
	// one-stage finds more viable rewrites on impossible queries (paper Fig. 20).
}
