// Seeded input generators. The program under test only ever receives the
// bytes these produce.
#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"

namespace perfbench {

/// A member text (~`bytes`, ending on a record boundary) of the paper
/// benchmark `name`: bigdata, regexp, bible, fasta or traffic. The formats
/// follow the paper's Tab. 1 suite; config.json holds the matching regexes.
std::string paper_text(const std::string& name, std::size_t bytes, Rng& rng);

/// `member` damaged so that it leaves the benchmark's language: bible loses
/// every section title, the others get an out-of-format byte mid-text.
std::string non_member(const std::string& name, const std::string& member);

}  // namespace perfbench
