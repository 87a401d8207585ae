#include "core/report.hpp"

#include <iomanip>
#include <ostream>
#include <sstream>

namespace amsyn::core {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::addRow(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::num(double v, int precision) {
  std::ostringstream out;
  out << std::setprecision(precision) << v;
  return out.str();
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c) width[c] = std::max(width[c], row[c].size());

  auto line = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c)
      os << std::left << std::setw(static_cast<int>(width[c]) + 2) << cells[c];
    os << "\n";
  };
  line(headers_);
  std::size_t total = 0;
  for (std::size_t w : width) total += w + 2;
  os << std::string(total, '-') << "\n";
  for (const auto& row : rows_) line(row);
}

}  // namespace amsyn::core
