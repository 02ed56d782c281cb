// The lower bound of Section 5.
//
// Lemma 5.1: the family "full binary tree with bidirectional edges plus a
// simple directed loop through the 2^d leaves" has at least (2^d - 1)!
// distinct topologies (every cyclic order of the leaves is distinct), all
// with N = 2^(d+1) - 1 processors and diameter O(log N). Hence
// log2 G(N) = Theta(N log N).
//
// Lemma 5.2: after x ticks the root has seen one of at most |I|^(delta * x)
// transcripts (delta in-ports, alphabet I, one character per port per tick).
//
// Theorem 5.1: |I|^(delta*T) >= G(N)  =>  T >= log2 G(N) / (delta*log2|I|)
//            = Omega(N log N).
#pragma once

#include <cstdint>

#include "graph/port_graph.hpp"

namespace dtop {

// log2 of the number of distinct topologies in the Lemma 5.1 family at the
// given tree depth (leaves = 2^depth): log2((leaves-1)!) for the distinct
// cyclic leaf orders.
double log2_topology_count(int depth);

// Node count of the family at this depth: 2^(depth+1) - 1.
std::uint64_t tree_loop_nodes(int depth);

// log2 of our protocol's per-wire alphabet |I| for a given degree bound
// (the Character of proto/alphabet.hpp, counted lane by lane: each lane's
// values plus "absent", i.e. its presence bit in Character::lanes clear).
double log2_alphabet_size(Port delta);

// Transcript capacity per tick in bits: delta * log2 |I| (Lemma 5.2).
double transcript_bits_per_tick(Port delta);

// The implied minimum running time on the family at this depth (Theorem
// 5.1), for a protocol with the given degree bound and our alphabet.
double lower_bound_ticks(int depth, Port delta);

// Same, for an arbitrary |I| supplied in bits (the paper's abstract form).
double lower_bound_ticks_abstract(double log2_topologies, Port delta,
                                  double log2_alphabet);

}  // namespace dtop
