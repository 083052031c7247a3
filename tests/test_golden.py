"""Golden stdout bytes of ``risk`` and ``scan``.

Each case is a CLI call whose mixture arm runs a different family sampler
(``disjoint``, ``stars``, ``trees``, ``matchings``).  The expected bytes were
recorded from the per-trial ``SeededRng.child(arm, t).generator()`` draw path,
so any faster draw path must reproduce them exactly.  One case spans several
trial chunks and is replayed with ``--workers 2``; one scan uses a master seed
of 2**32 or more, which numpy's SeedSequence splits into two uint32 words.

The ``risk`` maximum test on matchings, the ``scan`` likelihood-ratio test on
spanning trees and ``emax`` on matchings were recorded from the enumeration and
Hungarian-solver kernels, so the subset-DP and matrix-tree kernels that replace
them must reproduce those bytes too.
"""

import pytest

from combidetect.cli import main

GOLDEN = {
    'risk-disjoint-optimal': (
        'risk --class disjoint --N 3 --K 2 --test optimal --mu 0.5 --mu 1.5 --trials 300 --seed 7',
        '#schema=combidetect.risk.v1\n'
        '#version=0.1.0\n'
        '#config={"K":2,"N":3,"class":"disjoint","command":"risk","mu":[0.5,1.5],"seed":7,"test":"optimal","trials":300}\n'
        'mu,type1,se1,type2,se2,total,se_total,trials\n'
        '0.5,0.46666666666666667,0.028803291992923821,0.39666666666666667,0.028244304571731639,0.86333333333333329,0.040340678853613386,300\n'
        '1.5,0.19,0.022649503305812248,0.19,0.022649503305812248,0.38,0.032031234756093936,300\n',
    ),
    'risk-disjoint-chunks': (
        'risk --class disjoint --N 2 --K 1 --test optimal --mu 1.0 --trials 2500 --seed 4',
        '#schema=combidetect.risk.v1\n'
        '#version=0.1.0\n'
        '#config={"K":1,"N":2,"class":"disjoint","command":"risk","mu":[1.0],"seed":4,"test":"optimal","trials":2500}\n'
        'mu,type1,se1,type2,se2,total,se_total,trials\n'
        '1,0.3604,0.0096023297173133976,0.34520000000000001,0.0095086688868631867,0.7056,0.013513678995743536,2500\n',
    ),
    'risk-stars-maximum': (
        'risk --class stars --m 6 --test maximum --mu 1.0 --mu 2.0 --trials 300 --seed 3',
        '#schema=combidetect.risk.v1\n'
        '#version=0.1.0\n'
        '#config={"class":"stars","command":"risk","emax0":4.232917987899192,"m":6,"mu":[1.0,2.0],"seed":3,"test":"maximum","trials":300}\n'
        'mu,type1,se1,type2,se2,total,se_total,trials\n'
        '1,0.12,0.018761663039293719,0.39333333333333331,0.028202968060248683,0.51333333333333331,0.033873402654699562,300\n'
        '2,0.0033333333333333335,0.0033277731404159861,0.10333333333333333,0.01757418139919615,0.10666666666666666,0.017886473266855208,300\n',
    ),
    'risk-trees-optimal': (
        'risk --class trees --m 5 --test optimal --mu 1.0 --trials 200 --seed 12',
        '#schema=combidetect.risk.v1\n'
        '#version=0.1.0\n'
        '#config={"class":"trees","command":"risk","m":5,"mu":[1.0],"seed":12,"test":"optimal","trials":200}\n'
        'mu,type1,se1,type2,se2,total,se_total,trials\n'
        '1,0.20499999999999999,0.028546015483776367,0.27000000000000002,0.031392674304684523,0.47499999999999998,0.042430826058421252,200\n',
    ),
    'risk-matchings-averaging-json': (
        'risk --class matchings --m 4 --test averaging --mu 0.8 --trials 300 --seed 5 --format json',
        '{\n'
        '  "config": {\n'
        '    "class": "matchings",\n'
        '    "command": "risk",\n'
        '    "m": 4,\n'
        '    "mu": [\n'
        '      0.8\n'
        '    ],\n'
        '    "seed": 5,\n'
        '    "test": "averaging",\n'
        '    "trials": 300\n'
        '  },\n'
        '  "results": [\n'
        '    {\n'
        '      "mu": 0.8,\n'
        '      "se1": 0.02721655269759087,\n'
        '      "se2": 0.02753785273643051,\n'
        '      "se_total": 0.03871787796450206,\n'
        '      "total": 0.6833333333333333,\n'
        '      "trials": 300,\n'
        '      "type1": 0.3333333333333333,\n'
        '      "type2": 0.35\n'
        '    }\n'
        '  ],\n'
        '  "schema": "combidetect.risk.v1",\n'
        '  "version": "0.1.0"\n'
        '}\n',
    ),
    'scan-disjoint-wide-seed': (
        'scan --class disjoint --N 4 --K 3 --test averaging --mu-grid 0.2:2.0:4 --trials 200 --seed 4294967301',
        '#schema=combidetect.scan.v1\n'
        '#version=0.1.0\n'
        '#config={"K":3,"N":4,"class":"disjoint","command":"scan","mu_grid":"0.2:2.0:4","seed":4294967301,"test":"averaging","trials":200}\n'
        'mu,type1,se1,type2,se2,total,se_total,trials\n'
        '0.20000000000000001,0.46999999999999997,0.035291642070042588,0.5,0.035355339059327376,0.96999999999999997,0.049954979731754473,200\n'
        '0.80000000000000004,0.36499999999999999,0.034042253156922497,0.375,0.03423265984407288,0.73999999999999999,0.048277841708179121,200\n'
        '1.3999999999999999,0.215,0.029049526674285075,0.23999999999999999,0.030199337741083,0.45499999999999996,0.041903162171845698,200\n'
        '2,0.245,0.030411757594719844,0.17499999999999999,0.026867731575255845,0.41999999999999998,0.040580167569885667,200\n'
        '#critical_mu=1.3052631578947367\n',
    ),
    'scan-stars-optimal': (
        'scan --class stars --m 5 --test optimal --mu-grid 0.5:2.5:3 --trials 200 --seed 11',
        '#schema=combidetect.scan.v1\n'
        '#version=0.1.0\n'
        '#config={"class":"stars","command":"scan","m":5,"mu_grid":"0.5:2.5:3","seed":11,"test":"optimal","trials":200}\n'
        'mu,type1,se1,type2,se2,total,se_total,trials\n'
        '0.5,0.39500000000000002,0.034566963997435467,0.41499999999999998,0.0348407089480108,0.81000000000000005,0.049079017920084747,200\n'
        '1.5,0.115,0.022558257911461158,0.13500000000000001,0.024163505540380516,0.25,0.033056769352131185,200\n'
        '2.5,0.01,0.0070356236397351446,0.014999999999999999,0.0085950567188355417,0.025000000000000001,0.01110742994576153,200\n'
        '#critical_mu=1.0535714285714286\n',
    ),
    'scan-trees-maximum': (
        'scan --class trees --m 4 --test maximum --mu-grid 0.5:3.0:3 --trials 150 --seed 19',
        '#schema=combidetect.scan.v1\n'
        '#version=0.1.0\n'
        '#config={"class":"trees","command":"scan","emax0":4.078667960675236,"m":4,"mu_grid":"0.5:3.0:3","seed":19,"test":"maximum","trials":150}\n'
        'mu,type1,se1,type2,se2,total,se_total,trials\n'
        '0.5,0.27333333333333332,0.03638884648004314,0.52000000000000002,0.040792156108742275,0.79333333333333333,0.054663956572390072,150\n'
        '1.75,0.026666666666666668,0.013154354299509993,0.24666666666666667,0.035196801201456004,0.27333333333333332,0.037574617121826429,150\n'
        '3,0,0,0.066666666666666666,0.020367003088692621,0.066666666666666666,0.020367003088692621,150\n'
        '#critical_mu=1.2051282051282051\n',
    ),
    'scan-matchings-optimal-json': (
        'scan --class matchings --m 4 --test optimal --mu-grid 0.5:2.0:3 --trials 200 --seed 23 --format json',
        '{\n'
        '  "config": {\n'
        '    "class": "matchings",\n'
        '    "command": "scan",\n'
        '    "m": 4,\n'
        '    "mu_grid": "0.5:2.0:3",\n'
        '    "seed": 23,\n'
        '    "test": "optimal",\n'
        '    "trials": 200\n'
        '  },\n'
        '  "critical_mu": 0.93,\n'
        '  "results": [\n'
        '    {\n'
        '      "mu": 0.5,\n'
        '      "se1": 0.033613613313656115,\n'
        '      "se2": 0.034139420030223126,\n'
        '      "se_total": 0.047910072009964666,\n'
        '      "total": 0.715,\n'
        '      "trials": 200,\n'
        '      "type1": 0.345,\n'
        '      "type2": 0.37\n'
        '    },\n'
        '    {\n'
        '      "mu": 1.25,\n'
        '      "se1": 0.02656124997058685,\n'
        '      "se2": 0.02656124997058685,\n'
        '      "se_total": 0.03756327994198589,\n'
        '      "total": 0.34,\n'
        '      "trials": 200,\n'
        '      "type1": 0.17,\n'
        '      "type2": 0.17\n'
        '    },\n'
        '    {\n'
        '      "mu": 2.0,\n'
        '      "se1": 0.013856406460551017,\n'
        '      "se2": 0.017432010784760317,\n'
        '      "se_total": 0.02226825094164335,\n'
        '      "total": 0.10500000000000001,\n'
        '      "trials": 200,\n'
        '      "type1": 0.04,\n'
        '      "type2": 0.065\n'
        '    }\n'
        '  ],\n'
        '  "schema": "combidetect.scan.v1",\n'
        '  "version": "0.1.0"\n'
        '}\n',
    ),
    'risk-matchings-maximum': (
        'risk --class matchings --m 6 --test maximum --mu 1.0 --mu 2.0 --trials 400 --seed 31',
        '#schema=combidetect.risk.v1\n'
        '#version=0.1.0\n'
        '#config={"class":"matchings","command":"risk","emax0":8.88543834282368,"m":6,"mu":[1.0,2.0],"seed":31,"test":"maximum","trials":400}\n'
        'mu,type1,se1,type2,se2,total,se_total,trials\n'
        '1,0.20000000000000001,0.02,0.32750000000000001,0.023465067121148406,0.52750000000000008,0.030831953797967458,400\n'
        '2,0.0025000000000000001,0.0024968730444297725,0.19500000000000001,0.01981003533565753,0.19750000000000001,0.019966769267961204,400\n',
    ),
    'scan-trees-optimal': (
        'scan --class trees --m 6 --test optimal --mu-grid 0.4:2.0:3 --trials 200 --seed 37',
        '#schema=combidetect.scan.v1\n'
        '#version=0.1.0\n'
        '#config={"class":"trees","command":"scan","m":6,"mu_grid":"0.4:2.0:3","seed":37,"test":"optimal","trials":200}\n'
        'mu,type1,se1,type2,se2,total,se_total,trials\n'
        '0.40000000000000002,0.38500000000000001,0.034407484650872115,0.40999999999999998,0.034777866524558401,0.79499999999999993,0.048922132005872351,200\n'
        '1.2000000000000002,0.16,0.025922962793631439,0.17499999999999999,0.026867731575255845,0.33499999999999996,0.037334635393960924,200\n'
        '2,0.059999999999999998,0.016792855623746664,0.050000000000000003,0.015411035007422441,0.11,0.022792542640082961,200\n'
        '#critical_mu=0.91304347826086951\n',
    ),
    'emax-matchings': (
        'emax --class matchings --m 5 --trials 500 --seed 41',
        '#schema=combidetect.emax.v1\n'
        '#version=0.1.0\n'
        '#config={"class":"matchings","command":"emax","m":5,"seed":41,"trials":500}\n'
        'key,value\n'
        'emax0,4.7174239827088691\n'
        'se,0.065906730166940639\n'
        'gaussian_cap,6.9191702846382137\n',
    ),
}


def run(capsys, argv: list[str]) -> str:
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    return captured.out


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stdout_bytes_match_golden(capsys, name):
    command, expected = GOLDEN[name]
    assert run(capsys, command.split()) == expected


def test_workers_replay_golden_bytes(capsys):
    command, expected = GOLDEN["risk-disjoint-chunks"]
    assert run(capsys, command.split() + ["--workers", "2"]) == expected
