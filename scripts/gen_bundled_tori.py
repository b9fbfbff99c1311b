"""Regenerate the bundled torus documents in tori/.

Run from the repository root:  python scripts/gen_bundled_tori.py

Every document except example1_m2 is written by ``toruslab gen-example``;
example1_m2 needs the cube root of 3 as its generator, which gen-example
does not offer, so it is built here.
"""

import pathlib
import sys
from fractions import Fraction

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from toruslab import papercheck
from toruslab.cli import document_from_torus, run_command
from toruslab.exactfield import GeneratorSpec

OUT = pathlib.Path(__file__).resolve().parent.parent / "tori"

CBRT3 = GeneratorSpec(
    name="r",
    min_poly=(Fraction(-3), Fraction(0), Fraction(0), Fraction(1)),
    root_re=(Fraction(7, 5), Fraction(29, 20)),
    root_im=(Fraction(0), Fraction(0)),
    conj="real",
)

# document name -> gen-example arguments
GEN_EXAMPLE = {
    "example1_m1.json": ["1", "--m", "1"],
    "example2_m1_n2.json": ["2", "--m", "1", "--n", "2"],
    "example2_m2_n3.json": ["2", "--m", "2", "--n", "3"],
    "scalar_m1.json": ["scalar", "--m", "1"],
    "scalar_m2.json": ["scalar", "--m", "2"],
    "random_d2_seed1.json": ["random", "--d", "2", "--seed", "1"],
    "random_d3_seed1.json": ["random", "--d", "3", "--seed", "1"],
}


def main():
    OUT.mkdir(exist_ok=True)
    for name, args in GEN_EXAMPLE.items():
        if run_command(["gen-example", *args, "-o", str(OUT / name)]) != 0:
            sys.exit(f"gen-example {' '.join(args)} failed")
    t, m = papercheck.example1(2, CBRT3)
    path = OUT / "example1_m2.json"
    path.write_text(document_from_torus(t, [m]).to_json_text(), encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
