// Shared fixtures for the rispar test suite.
#pragma once

#include <string>
#include <vector>

#include "automata/dfa.hpp"
#include "automata/nfa.hpp"
#include "util/prng.hpp"

namespace rispar::testing {

/// The worked example of the paper's Fig. 1 / Fig. 3 / Fig. 4: a 3-state
/// NFA over Σ = {a, b, c} whose minimal DFA has 4 states and whose RI-DFA
/// has 5 states with 3 initials. Reconstructed from the figure's runs:
///   ρ(0,a)={1} ρ(0,c)={1} ρ(1,a)={0,1} ρ(1,b)={0,2} ρ(1,c)={0} ρ(2,b)={1}
/// F = {2}, q0 = 0. Symbols: a=0, b=1, c=2.
inline Nfa fig1_nfa() {
  Nfa nfa = Nfa::with_identity_alphabet(3);
  for (int s = 0; s < 3; ++s) nfa.add_state();
  nfa.set_initial(0);
  nfa.set_final(2);
  nfa.add_edge(0, 0, 1);  // 0 -a-> 1
  nfa.add_edge(0, 2, 1);  // 0 -c-> 1
  nfa.add_edge(1, 0, 0);  // 1 -a-> 0
  nfa.add_edge(1, 0, 1);  // 1 -a-> 1
  nfa.add_edge(1, 1, 0);  // 1 -b-> 0
  nfa.add_edge(1, 1, 2);  // 1 -b-> 2
  nfa.add_edge(1, 2, 0);  // 1 -c-> 0
  nfa.add_edge(2, 1, 1);  // 2 -b-> 1
  return nfa;
}

/// Fig. 1's sample string "aabcab" in symbol ids (a=0, b=1, c=2).
inline std::vector<Symbol> fig1_string() { return {0, 0, 1, 2, 0, 1}; }

/// The paper's Fig. 2 recognizer: L = b*a(ab*a | b+a)* over Σ = {a, b},
/// a 2-state DFA (q0, q1), final = {q1}. Symbols: a=0, b=1.
inline Dfa fig2_dfa() {
  Dfa dfa = Dfa::with_identity_alphabet(2);
  dfa.add_state(false);  // q0
  dfa.add_state(true);   // q1
  dfa.set_initial(0);
  dfa.set_transition(0, 1, 0);  // q0 -b-> q0
  dfa.set_transition(0, 0, 1);  // q0 -a-> q1
  dfa.set_transition(1, 0, 0);  // q1 -a-> q0
  dfa.set_transition(1, 1, 0);  // q1 -b-> q0
  return dfa;
}

/// `symbols` as raw bytes for `map`: each symbol's representative byte,
/// and SymbolMap::kUnmapped as the first byte the map leaves unmapped.
inline std::string to_bytes(const SymbolMap& map, const std::vector<Symbol>& symbols) {
  int alien = 0;  // callers only plant kUnmapped when the map leaves a byte out
  while (alien < 255 && map.symbol_of(static_cast<unsigned char>(alien)) !=
                            SymbolMap::kUnmapped)
    ++alien;
  std::string bytes;
  bytes.reserve(symbols.size());
  for (const Symbol symbol : symbols)
    bytes.push_back(static_cast<char>(
        symbol == SymbolMap::kUnmapped ? alien : map.representative(symbol)));
  return bytes;
}

/// Uniform random symbol string over [0, k).
inline std::vector<Symbol> random_word(Prng& prng, int k, std::size_t length) {
  std::vector<Symbol> word(length);
  for (auto& symbol : word)
    symbol = static_cast<Symbol>(prng.pick_index(static_cast<std::size_t>(k)));
  return word;
}

}  // namespace rispar::testing
