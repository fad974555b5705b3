"""Reports: the text lines and the JSON read one schema-1 conversion."""
import json

from ulrich_forge.report import INFO, Check, VerificationReport


class Certificate:
    """A certificate that counts its conversions to text."""

    def __init__(self):
        self.conversions = 0

    def __str__(self):
        self.conversions += 1
        return "certificate"


def test_text_and_json_share_one_conversion():
    cert = Certificate()
    report = VerificationReport("p", {"n": 3}, [Check("claim", "anchor", INFO, cert)], "V", "QQ")
    assert report.text_lines() == ["pipeline: p", "  input n = 3", "  [INFO] claim",
                                   "         certificate: certificate", "verdict: V"]
    assert json.loads(report.to_json())["checks"][0]["certificate"] == "certificate"
    assert cert.conversions == 1
