#include "symbolic/sympoly.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace amsyn::symbolic {

SymbolId SymbolTable::intern(const std::string& name, double nominal) {
  auto it = byName_.find(name);
  if (it != byName_.end()) {
    nominals_[it->second] = nominal;
    return it->second;
  }
  const SymbolId id = static_cast<SymbolId>(names_.size());
  names_.push_back(name);
  nominals_.push_back(nominal);
  byName_[name] = id;
  return id;
}

SymSum SymSum::constant(double c) {
  SymSum s;
  if (c != 0.0) s.terms_[{}] = c;
  return s;
}

SymSum SymSum::symbol(SymbolId id) {
  SymSum s;
  s.terms_[{id}] = 1.0;
  return s;
}

void SymSum::add(const Term& t) {
  if (t.coefficient == 0.0) return;
  std::vector<SymbolId> key = t.symbols;
  std::sort(key.begin(), key.end());
  auto [it, inserted] = terms_.try_emplace(std::move(key), t.coefficient);
  if (!inserted) {
    it->second += t.coefficient;
    if (it->second == 0.0) terms_.erase(it);
  }
}

SymSum SymSum::operator+(const SymSum& rhs) const {
  SymSum out = *this;
  for (const auto& [k, v] : rhs.terms_) out.add(Term{k, v});
  return out;
}

SymSum SymSum::negated() const {
  SymSum out = *this;
  for (auto& [k, v] : out.terms_) v = -v;
  return out;
}

SymSum SymSum::operator*(const SymSum& rhs) const {
  SymSum out;
  for (const auto& [ka, va] : terms_) {
    for (const auto& [kb, vb] : rhs.terms_) {
      std::vector<SymbolId> key;
      key.reserve(ka.size() + kb.size());
      std::merge(ka.begin(), ka.end(), kb.begin(), kb.end(), std::back_inserter(key));
      out.add(Term{std::move(key), va * vb});
    }
  }
  return out;
}

double SymSum::evaluate(const SymbolTable& table) const {
  double acc = 0.0;
  for (const auto& [k, v] : terms_) {
    double prod = v;
    for (SymbolId id : k) prod *= table.nominal(id);
    acc += prod;
  }
  return acc;
}

SymSum SymSum::simplified(const SymbolTable& table, double eps) const {
  // Magnitude of each term at nominal values.
  double maxMag = 0.0;
  std::vector<std::pair<const std::vector<SymbolId>*, double>> mags;
  for (const auto& [k, v] : terms_) {
    double prod = std::abs(v);
    for (SymbolId id : k) prod *= std::abs(table.nominal(id));
    mags.emplace_back(&k, prod);
    maxMag = std::max(maxMag, prod);
  }
  SymSum out;
  for (std::size_t i = 0; i < mags.size(); ++i) {
    if (mags[i].second >= eps * maxMag) {
      const auto& key = *mags[i].first;
      out.terms_[key] = terms_.at(key);
    }
  }
  return out;
}

std::string SymSum::toString(const SymbolTable& table) const {
  if (terms_.empty()) return "0";
  std::ostringstream out;
  bool first = true;
  for (const auto& [k, v] : terms_) {
    double coeff = v;
    if (first) {
      if (coeff < 0) out << "-";
    } else {
      out << (coeff < 0 ? " - " : " + ");
    }
    coeff = std::abs(coeff);
    first = false;
    bool needStar = false;
    if (coeff != 1.0 || k.empty()) {
      out << coeff;
      needStar = true;
    }
    for (SymbolId id : k) {
      if (needStar) out << "*";
      out << table.name(id);
      needStar = true;
    }
  }
  return out.str();
}

SPoly SPoly::sTimes(const SymSum& c) {
  SPoly p;
  p.coeffs_ = {SymSum{}, c};
  p.trim();
  return p;
}

bool SPoly::isZero() const {
  for (const auto& c : coeffs_)
    if (!c.isZero()) return false;
  return true;
}

const SymSum& SPoly::coefficient(std::size_t k) const {
  static const SymSum kZero{};
  return k < coeffs_.size() ? coeffs_[k] : kZero;
}

void SPoly::trim() {
  while (!coeffs_.empty() && coeffs_.back().isZero()) coeffs_.pop_back();
}

SPoly SPoly::operator+(const SPoly& rhs) const {
  SPoly out;
  out.coeffs_.resize(std::max(coeffs_.size(), rhs.coeffs_.size()));
  for (std::size_t k = 0; k < out.coeffs_.size(); ++k)
    out.coeffs_[k] = coefficient(k) + rhs.coefficient(k);
  out.trim();
  return out;
}

SPoly SPoly::operator-(const SPoly& rhs) const { return *this + rhs.negated(); }

SPoly SPoly::negated() const {
  SPoly out = *this;
  for (auto& c : out.coeffs_) c = c.negated();
  return out;
}

SPoly SPoly::operator*(const SPoly& rhs) const {
  SPoly out;
  if (isZero() || rhs.isZero()) return out;
  out.coeffs_.resize(coeffs_.size() + rhs.coeffs_.size() - 1);
  for (std::size_t i = 0; i < coeffs_.size(); ++i) {
    if (coeffs_[i].isZero()) continue;
    for (std::size_t j = 0; j < rhs.coeffs_.size(); ++j) {
      if (rhs.coeffs_[j].isZero()) continue;
      out.coeffs_[i + j] = out.coeffs_[i + j] + coeffs_[i] * rhs.coeffs_[j];
    }
  }
  out.trim();
  return out;
}

std::vector<double> SPoly::evaluate(const SymbolTable& table) const {
  std::vector<double> out;
  out.reserve(coeffs_.size());
  for (const auto& c : coeffs_) out.push_back(c.evaluate(table));
  if (out.empty()) out.push_back(0.0);
  return out;
}

SPoly SPoly::simplified(const SymbolTable& table, double eps) const {
  SPoly out = *this;
  for (auto& c : out.coeffs_) c = c.simplified(table, eps);
  out.trim();
  return out;
}

std::string SPoly::toString(const SymbolTable& table) const {
  if (isZero()) return "0";
  std::ostringstream out;
  bool first = true;
  for (std::size_t k = 0; k < coeffs_.size(); ++k) {
    if (coeffs_[k].isZero()) continue;
    if (!first) out << " + ";
    first = false;
    if (k == 0) {
      out << "(" << coeffs_[k].toString(table) << ")";
    } else {
      out << "s";
      if (k > 1) out << "^" << k;
      out << "*(" << coeffs_[k].toString(table) << ")";
    }
  }
  return out.str();
}

std::size_t SPoly::termCount() const {
  std::size_t n = 0;
  for (const auto& c : coeffs_) n += c.termCount();
  return n;
}

}  // namespace amsyn::symbolic
