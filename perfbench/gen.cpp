#include "gen.hpp"

#include <stdexcept>

namespace perfbench {

namespace {

template <std::size_t N>
const char* pick(const char* const (&items)[N], Rng& rng) {
  return items[rng.below(N)];
}

std::string two_digits(std::size_t value) {
  return std::string(1, static_cast<char>('0' + value / 10)) +
         static_cast<char>('0' + value % 10);
}

// The timestamp and host prefix of a traffic line. Every draw is its own
// statement: the operands of `a + b` are unsequenced, and the bytes of a
// seed must not depend on the compiler's choice.
void stamp(std::string& text, Rng& rng) {
  text += "May ";
  text += two_digits(1 + rng.below(28));
  text += ' ';
  text += two_digits(rng.below(24));
  text += ':';
  text += two_digits(rng.below(60));
  text += ':';
  text += two_digits(rng.below(60));
  text += " host";
  text += static_cast<char>('0' + rng.below(10));
  text += ' ';
}

std::string number(Rng& rng, std::size_t base, std::size_t span) {
  return std::to_string(base + rng.below(span));
}

std::string ip(Rng& rng) {
  std::string out;
  for (int octet = 0; octet < 4; ++octet) {
    if (octet) out += '.';
    out += number(rng, 0, 256);
  }
  return out;
}

// (ab|ba)*
std::string bigdata(std::size_t bytes, Rng& rng) {
  std::string text;
  text.reserve(bytes + 2);
  while (text.size() < bytes) text += rng.below(2) ? "ab" : "ba";
  return text;
}

// [ab]*a[ab]{6}: the 7th byte from the end is 'a'.
std::string regexp(std::size_t bytes, Rng& rng) {
  std::string text(bytes, 'a');
  for (char& ch : text) ch = rng.below(2) ? 'a' : 'b';
  text[bytes - 7] = 'a';
  return text;
}

// .*<h3>[a-z0-9 ]*[0-9][a-z0-9 ]{2}</h3>.* — manuscript body with section
// titles whose third byte from the end is a digit.
std::string bible(std::size_t bytes, Rng& rng) {
  static const char* const words[] = {"in", "principio", "creo", "il", "cielo", "e",
                                      "la", "terra", "luce", "acque", "giorno",
                                      "notte", "disse", "fu", "sera", "mattina",
                                      "libro", "verso", "capitolo", "secondo"};
  std::string text;
  text.reserve(bytes + 1024);
  std::size_t section = 0;
  while (text.size() < bytes) {
    text += "<h3>";
    const std::size_t title_words = 2 + rng.below(3);
    for (std::size_t w = 0; w < title_words; ++w) {
      text += pick(words, rng);
      text += ' ';
    }
    text += static_cast<char>('0' + section++ % 10);
    text += rng.below(2) ? " a" : "b ";
    text += "</h3>\n";
    const std::size_t lines = 25 + rng.below(30);
    for (std::size_t line = 0; line < lines; ++line) {
      const std::size_t count = 6 + rng.below(10);
      for (std::size_t w = 0; w < count; ++w) {
        text += pick(words, rng);
        text += w + 1 < count ? " " : ".\n";
      }
    }
  }
  return text;
}

// (>[a-z0-9]+ (GATTACA|CCGGTTAA|ACGTACGT) [0-9]+\n([ACGT]+\n)+)*
std::string fasta(std::size_t bytes, Rng& rng) {
  static const char* const motifs[] = {"GATTACA", "CCGGTTAA", "ACGTACGT"};
  static const char bases[] = {'A', 'C', 'G', 'T'};
  std::string text;
  text.reserve(bytes + 4096);
  std::size_t record = 0;
  while (text.size() < bytes) {
    text += ">chr" + std::to_string(record++) + ' ';
    text += pick(motifs, rng);
    text += ' ' + number(rng, 0, 1000000) + '\n';
    const std::size_t lines = 10 + rng.below(30);
    for (std::size_t line = 0; line < lines; ++line) {
      const std::size_t width = 40 + rng.below(41);
      for (std::size_t b = 0; b < width; ++b) text += bases[rng.below(4)];
      text += '\n';
    }
  }
  return text;
}

// (May [0-9]{2} [0-9]{2}:[0-9]{2}:[0-9]{2} host[0-9] (sshd|kernel|systemd|
// nginxd)\[[0-9]{1,5}\]: (ACCEPT|REJECT|DROP) src=<ip> dpt=[0-9]{1,5}\n)*
// Every field is drawn uniformly, as the library's own traffic generator
// (src/workloads/suite.cpp) draws it.
std::string traffic(std::size_t bytes, Rng& rng) {
  static const char* const daemons[] = {"sshd", "kernel", "systemd", "nginxd"};
  static const char* const verdicts[] = {"ACCEPT", "REJECT", "DROP"};
  std::string text;
  text.reserve(bytes + 256);
  while (text.size() < bytes) {
    stamp(text, rng);
    text += pick(daemons, rng);
    text += '[' + number(rng, 1, 99999) + "]: ";
    text += pick(verdicts, rng);
    text += " src=" + ip(rng);
    text += " dpt=" + number(rng, 1, 65535) + '\n';
  }
  return text;
}

}  // namespace

std::string paper_text(const std::string& name, std::size_t bytes, Rng& rng) {
  if (name == "bigdata") return bigdata(bytes, rng);
  if (name == "regexp") return regexp(bytes, rng);
  if (name == "bible") return bible(bytes, rng);
  if (name == "fasta") return fasta(bytes, rng);
  if (name == "traffic") return traffic(bytes, rng);
  throw std::runtime_error("unknown paper benchmark " + name);
}

std::string non_member(const std::string& name, const std::string& member) {
  std::string text = member;
  if (name == "bible") {
    for (std::size_t at = text.find("<h3>"); at != std::string::npos;
         at = text.find("<h3>", at))
      text[at + 2] = '4';
    return text;
  }
  // Right after a line break (or mid-text when there is none): a '#' is
  // outside every other benchmark's line format and alphabet.
  std::size_t at = text.find('\n', text.size() / 2);
  at = at == std::string::npos ? text.size() / 2 : at + 1;
  text.insert(at, "#");
  return text;
}

}  // namespace perfbench
