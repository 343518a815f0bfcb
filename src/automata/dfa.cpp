#include "automata/dfa.hpp"

#include <cassert>

namespace rispar {

const PackedTable& Dfa::packed() const {
  auto current = std::atomic_load_explicit(&packed_, std::memory_order_acquire);
  if (!current) {
    auto built = std::make_shared<const PackedTable>(
        PackedTable::build(table_, num_states(), num_symbols_));
    std::shared_ptr<const PackedTable> expected;
    if (std::atomic_compare_exchange_strong(&packed_, &expected, built))
      current = std::move(built);
    else
      current = std::move(expected);  // another thread won; use its build
  }
  return *current;
}

State Dfa::add_state(bool is_final) {
  packed_.reset();
  const State state = num_states();
  table_.insert(table_.end(), static_cast<std::size_t>(num_symbols_), kDeadState);
  finals_.grow(static_cast<std::size_t>(state) + 1);
  if (is_final) finals_.set(static_cast<std::size_t>(state));
  return state;
}

void Dfa::set_final(State state, bool is_final) {
  if (is_final)
    finals_.set(static_cast<std::size_t>(state));
  else
    finals_.reset(static_cast<std::size_t>(state));
}

void Dfa::set_transition(State from, Symbol symbol, State to) {
  packed_.reset();
  assert(from >= 0 && from < num_states());
  assert(symbol >= 0 && symbol < num_symbols_);
  assert(to == kDeadState || (to >= 0 && to < num_states()));
  table_[static_cast<std::size_t>(from) * num_symbols_ +
         static_cast<std::size_t>(symbol)] = to;
}

std::size_t Dfa::num_transitions() const {
  std::size_t total = 0;
  for (const State entry : table_)
    if (entry != kDeadState) ++total;
  return total;
}

State Dfa::run(State start, const std::vector<Symbol>& input) const {
  State state = start;
  for (const Symbol symbol : input) {
    if (symbol < 0 || symbol >= num_symbols_) return kDeadState;
    state = step(state, symbol);
    if (state == kDeadState) return kDeadState;
  }
  return state;
}

bool Dfa::accepts(const std::vector<Symbol>& input) const {
  const State state = run(initial_, input);
  return state != kDeadState && is_final(state);
}

bool Dfa::accepts(const std::string& text) const {
  return accepts(symbols_.translate(text));
}

bool Dfa::is_complete() const {
  for (const State entry : table_)
    if (entry == kDeadState) return false;
  return true;
}

Dfa Dfa::completed() const {
  if (is_complete()) return *this;
  Dfa result = *this;
  const State sink = result.add_state(false);
  for (State s = 0; s < result.num_states(); ++s)
    for (Symbol a = 0; a < result.num_symbols(); ++a)
      if (result.step(s, a) == kDeadState) result.set_transition(s, a, sink);
  return result;
}

Nfa dfa_to_nfa(const Dfa& dfa) {
  Nfa nfa(dfa.num_symbols(), dfa.symbols());
  for (State s = 0; s < dfa.num_states(); ++s) nfa.add_state(dfa.is_final(s));
  nfa.set_initial(dfa.initial());
  for (State s = 0; s < dfa.num_states(); ++s)
    for (Symbol a = 0; a < dfa.num_symbols(); ++a)
      if (const State t = dfa.step(s, a); t != kDeadState) nfa.add_edge(s, a, t);
  return nfa;
}

}  // namespace rispar
