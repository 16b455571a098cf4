package main

// The quickstart's stdout, pinned: a change to the engine, the option space
// or agent training that moves its decision or its numbers shows up here.
func Example() {
	main()
	// Output:
	// training the MDP agent (a few seconds)...
	//
	// original query:
	//   SELECT id, coordinates FROM tweets WHERE text contains "word0050" AND created_at BETWEEN 1.446336e+12 AND 1.4469408e+12 AND coordinates IN ((-124.4000, 32.5000), (-114.1000, 42.0000));
	//
	// backend optimizer alone would take 3587 ms (budget 500 ms)
	//
	// Maliva's rewritten query:
	//   /*+ Index-Scan(tweets text), Index-Scan(tweets created_at) */ SELECT id, coordinates FROM tweets WHERE text contains "word0050" AND created_at BETWEEN 1.446336e+12 AND 1.4469408e+12 AND coordinates IN ((-124.4000, 32.5000), (-114.1000, 42.0000));
	//
	// explored 4 of 8 rewritten queries, planning 140 ms + execution 286 ms = 426 ms total (viable: true)
}
