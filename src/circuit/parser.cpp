#include "circuit/parser.hpp"

#include <algorithm>
#include <cctype>
#include <climits>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace amsyn::circuit {

namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream ss(line);
  std::string tok;
  while (ss >> tok) {
    if (tok[0] == ';') break;
    out.push_back(tok);
  }
  return out;
}

/// Split "W=10u" into {"w", "10u"}; returns false if not key=value.
bool splitKeyValue(const std::string& tok, std::string& key, std::string& val) {
  const auto eq = tok.find('=');
  if (eq == std::string::npos) return false;
  key = lower(tok.substr(0, eq));
  val = tok.substr(eq + 1);
  return true;
}

}  // namespace

double parseValue(const std::string& token) {
  const std::string t = lower(token);
  std::size_t pos = 0;
  double base;
  try {
    base = std::stod(t, &pos);
  } catch (const std::exception&) {
    throw std::invalid_argument("parseValue: not a number: " + token);
  }
  // stod accepts "nan" and "inf"; no circuit value is either.
  if (!std::isfinite(base))
    throw std::invalid_argument("parseValue: not a finite number: " + token);
  const std::string suffix = t.substr(pos);
  if (suffix.empty()) return base;
  // SPICE semantics: an optional scale factor, then an arbitrary alphabetic
  // unit tail that is ignored ("2.5v" = 2.5, "100mhz" = 0.1 since m is
  // milli, "1kohm" = 1e3).  "meg" must be matched before "m": "1megohm" is
  // 1e6 while "1mohm" is 1e-3.  A first letter that is not a scale factor
  // starts a pure unit ("2.5v"), scale 1.
  double scale = 1.0;
  std::size_t consumed = 0;
  if (suffix.rfind("meg", 0) == 0) {
    scale = 1e6;
    consumed = 3;
  } else {
    switch (suffix[0]) {
      case 'f': scale = 1e-15; consumed = 1; break;
      case 'p': scale = 1e-12; consumed = 1; break;
      case 'n': scale = 1e-9; consumed = 1; break;
      case 'u': scale = 1e-6; consumed = 1; break;
      case 'm': scale = 1e-3; consumed = 1; break;
      case 'k': scale = 1e3; consumed = 1; break;
      case 'g': scale = 1e9; consumed = 1; break;
      case 't': scale = 1e12; consumed = 1; break;
      default: break;  // pure unit tail, e.g. "v" or "ohm"
    }
  }
  const std::string tail = suffix.substr(consumed);
  const bool tailIsUnit = std::all_of(tail.begin(), tail.end(), [](unsigned char c) {
    return std::isalpha(c) != 0;
  });
  if (!tailIsUnit)
    throw std::invalid_argument("parseValue: unknown suffix in " + token);
  const double value = base * scale;
  if (!std::isfinite(value))  // "1e308meg" overflows
    throw std::invalid_argument("parseValue: value out of range: " + token);
  return value;
}

Netlist parseDeck(const std::string& deck) {
  Netlist net;
  std::istringstream lines(deck);
  std::string line;
  std::size_t lineNo = 0;
  while (std::getline(lines, line)) {
    ++lineNo;
    const auto toks = tokenize(line);
    if (toks.empty() || toks[0][0] == '*') continue;
    const std::string card = lower(toks[0]);
    if (card == ".end") break;
    if (card[0] == '.') continue;  // other directives ignored

    auto need = [&](std::size_t n) {
      if (toks.size() < n)
        throw std::invalid_argument("parse error line " + std::to_string(lineNo) + ": " + line);
    };

    switch (card[0]) {
      case 'r':
        need(4);
        net.addResistor(toks[0], toks[1], toks[2], parseValue(toks[3]));
        break;
      case 'c':
        need(4);
        net.addCapacitor(toks[0], toks[1], toks[2], parseValue(toks[3]));
        break;
      case 'l':
        need(4);
        net.addInductor(toks[0], toks[1], toks[2], parseValue(toks[3]));
        break;
      case 'v':
      case 'i': {
        need(3);
        double dc = 0.0, ac = 0.0;
        for (std::size_t k = 3; k < toks.size(); ++k) {
          const std::string kw = lower(toks[k]);
          if (kw == "dc" && k + 1 < toks.size()) {
            dc = parseValue(toks[++k]);
          } else if (kw == "ac" && k + 1 < toks.size()) {
            ac = parseValue(toks[++k]);
          } else {
            dc = parseValue(toks[k]);  // bare value means DC
          }
        }
        if (card[0] == 'v')
          net.addVSource(toks[0], toks[1], toks[2], dc, ac);
        else
          net.addISource(toks[0], toks[1], toks[2], dc, ac);
        break;
      }
      case 'e':
        need(6);
        net.addVcvs(toks[0], toks[1], toks[2], toks[3], toks[4], parseValue(toks[5]));
        break;
      case 'g':
        need(6);
        net.addVccs(toks[0], toks[1], toks[2], toks[3], toks[4], parseValue(toks[5]));
        break;
      case 'm': {
        need(6);
        const std::string typeTok = lower(toks[5]);
        MosType type;
        if (typeTok == "nmos")
          type = MosType::Nmos;
        else if (typeTok == "pmos")
          type = MosType::Pmos;
        else
          throw std::invalid_argument("line " + std::to_string(lineNo) +
                                      ": unknown MOS model " + toks[5]);
        double w = 0, l = 0;
        int m = 1;
        for (std::size_t k = 6; k < toks.size(); ++k) {
          std::string key, val;
          if (!splitKeyValue(toks[k], key, val)) continue;
          if (key == "w") w = parseValue(val);
          else if (key == "l") l = parseValue(val);
          else if (key == "m") {
            // Converting an out-of-range double to int is undefined.
            const double mult = parseValue(val);
            if (!(mult >= 1.0 && mult <= INT_MAX && mult == std::floor(mult)))
              throw std::invalid_argument("line " + std::to_string(lineNo) +
                                          ": M= must be a whole number >= 1, got " + val);
            m = static_cast<int>(mult);
          }
        }
        if (w <= 0 || l <= 0)
          throw std::invalid_argument("line " + std::to_string(lineNo) + ": MOS needs W= and L=");
        net.addMos(toks[0], toks[1], toks[2], toks[3], toks[4], type, w, l, m);
        break;
      }
      case 'd': {
        need(3);
        double isat = 1e-14;
        for (std::size_t k = 3; k < toks.size(); ++k) {
          std::string key, val;
          if (splitKeyValue(toks[k], key, val) && key == "is") isat = parseValue(val);
        }
        net.addDiode(toks[0], toks[1], toks[2], isat);
        break;
      }
      default:
        throw std::invalid_argument("line " + std::to_string(lineNo) + ": unknown card " +
                                    toks[0]);
    }
  }
  return net;
}

}  // namespace amsyn::circuit
