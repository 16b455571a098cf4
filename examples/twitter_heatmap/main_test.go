//go:build !race

package main

// The heatmap example's stdout, pinned: the rewritten SQL, the decision and
// the rendered grid. Training the agent is slow under the race detector, so
// the race build leaves this test out.
func Example() {
	main()
	// Output:
	// training the quality-aware MDP agent...
	//
	// request SQL:
	//   SELECT id, coordinates FROM tweets WHERE text contains "word0001" AND created_at BETWEEN 1.4779584e+12 AND 1.4805504e+12 AND coordinates IN ((-124.8000, 24.4000), (-66.9000, 49.4000));
	// rewritten SQL:
	//   /*+ Index-Scan(tweets_sample20 text), Index-Scan(tweets_sample20 created_at) */ SELECT id, coordinates FROM tweets_sample20 WHERE text contains "word0001" AND created_at BETWEEN 1.4779584e+12 AND 1.4805504e+12 AND coordinates IN ((-124.8000, 24.4000), (-66.9000, 49.4000));
	// decision: idx{0,1}+sample20% after exploring 32 rewritten queries
	// virtual total time: 791 ms (plan 280 + exec 511), viable=true, quality=0.28
	//
	// |                                                        |
	// |  ..                                                    |
	// |                                                        |
	// |                                                        |
	// |                                                        |
	// |                                    -:           .      |
	// |                                               --.:     |
	// |                   .                            .       |
	// | .-                                                     |
	// |                                                        |
	// |     .:.                                                |
	// |     :-    ::                                           |
	// |                                                        |
	// |                         +@-                            |
	// |                          =.=                           |
	// |                                                        |
	// |                                                        |
	// |                                                        |
	//
	// max cell ≈ 60 matching tweets (sample-weighted)
}
