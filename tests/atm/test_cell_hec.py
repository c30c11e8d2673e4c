"""Unit and property tests for ATM cells and HEC."""

import pytest
from hypothesis import given, strategies as st

from repro.atm import (AtmCell, CELL_OCTETS, CellFormatError, PAYLOAD_OCTETS,
                       check_hec, crc8, hec_octet)
from repro.netsim import Packet


class TestHec:
    def test_crc8_empty_is_zero(self):
        assert crc8([]) == 0

    def test_crc8_known_vector(self):
        # CRC-8/ATM ("123456789") check value is 0xF4 for poly 0x07.
        data = [ord(c) for c in "123456789"]
        assert crc8(data) == 0xF4

    def test_hec_round_trip(self):
        header = [0x12, 0x34, 0x56, 0x78]
        assert check_hec(header + [hec_octet(header)])

    def test_hec_detects_single_bit_errors(self):
        header = [0x00, 0x11, 0x22, 0x33]
        full = header + [hec_octet(header)]
        for octet in range(5):
            for bit in range(8):
                corrupted = list(full)
                corrupted[octet] ^= 1 << bit
                assert not check_hec(corrupted)

    def test_hec_requires_four_octets(self):
        with pytest.raises(ValueError):
            hec_octet([1, 2, 3])

    def test_check_requires_five_octets(self):
        with pytest.raises(ValueError):
            check_hec([1, 2, 3, 4])

    def test_crc8_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            crc8([256])

    @given(st.lists(st.integers(0, 255), min_size=4, max_size=4))
    def test_property_hec_always_verifies(self, header):
        assert check_hec(header + [hec_octet(header)])


class TestAtmCell:
    def test_default_cell(self):
        cell = AtmCell()
        assert cell.is_idle
        assert len(cell.payload) == PAYLOAD_OCTETS

    def test_field_ranges_enforced(self):
        with pytest.raises(CellFormatError):
            AtmCell(vpi=256)
        with pytest.raises(CellFormatError):
            AtmCell(vci=65536)
        with pytest.raises(CellFormatError):
            AtmCell(pt=8)
        with pytest.raises(CellFormatError):
            AtmCell(clp=2)
        with pytest.raises(CellFormatError):
            AtmCell(gfc=16)

    def test_payload_length_enforced(self):
        with pytest.raises(CellFormatError):
            AtmCell(payload=(0,) * 47)

    def test_with_payload_pads(self):
        cell = AtmCell.with_payload(1, 2, [9, 8, 7])
        assert cell.payload[:3] == (9, 8, 7)
        assert cell.payload[3:] == (0,) * 45

    def test_with_payload_rejects_oversize(self):
        with pytest.raises(CellFormatError):
            AtmCell.with_payload(1, 2, [0] * 49)

    def test_octet_image_is_53_octets(self):
        assert len(AtmCell().to_octets()) == CELL_OCTETS

    def test_header_layout_known_values(self):
        cell = AtmCell(gfc=0xA, vpi=0xBC, vci=0xDEF0, pt=0b101, clp=1)
        h = cell.header_octets(with_hec=False)
        assert h[0] == 0xAB            # GFC | VPI[7:4]
        assert h[1] == 0xCD            # VPI[3:0] | VCI[15:12]
        assert h[2] == 0xEF            # VCI[11:4]
        assert h[3] == 0x0B            # VCI[3:0] | PT=101 | CLP=1

    def test_octet_round_trip(self):
        cell = AtmCell.with_payload(17, 4242, list(range(48)), pt=3,
                                    clp=1, gfc=5)
        assert AtmCell.from_octets(cell.to_octets()) == cell

    def test_from_octets_detects_corruption(self):
        octets = AtmCell.with_payload(1, 2, [3]).to_octets()
        octets[0] ^= 0x80
        with pytest.raises(CellFormatError):
            AtmCell.from_octets(octets)

    def test_from_octets_skip_hec_check(self):
        octets = AtmCell.with_payload(1, 2, [3]).to_octets()
        octets[4] ^= 0xFF
        cell = AtmCell.from_octets(octets, verify_hec=False)
        assert cell.vpi == 1

    def test_from_octets_length_enforced(self):
        with pytest.raises(CellFormatError):
            AtmCell.from_octets([0] * 52)

    def test_packet_round_trip(self):
        cell = AtmCell.with_payload(9, 99, [1, 2, 3], pt=1)
        packet = cell.to_packet(creation_time=2.5)
        assert packet.size_bits == 424
        assert packet["VPI"] == 9
        assert AtmCell.from_packet(packet) == cell

    def test_packet_round_trip_keeps_tuple_payload_and_trace_id(self):
        cell = AtmCell.with_payload(3, 33, [7, 8], trace_id=41)
        packet = cell.to_packet()
        assert packet["payload"] is cell.payload
        again = AtmCell.from_packet(packet)
        assert again == cell
        assert again.trace_id == 41
        assert type(again.payload) is tuple
        assert again.payload is cell.payload

    @pytest.mark.parametrize("payload", [[5, 6, 7], (5, 6, 7),
                                         [5, 6, 7] + [0] * 45, []])
    def test_foreign_packet_payload_is_zero_padded(self, payload):
        packet = Packet(size_bits=424,
                        fields={"VPI": 2, "VCI": 20, "payload": payload})
        cell = AtmCell.from_packet(packet)
        assert cell.payload == tuple(payload) + (0,) * (
            PAYLOAD_OCTETS - len(payload))
        assert type(cell.payload) is tuple

    def test_packet_without_fields_defaults_to_zero(self):
        assert AtmCell.from_packet(Packet()) == AtmCell()

    @pytest.mark.parametrize("fields", [
        {"VPI": 256}, {"VCI": -1}, {"PT": 8}, {"CLP": 2}, {"GFC": 16},
        {"payload": (0,) * 47 + (256,)},
        {"payload": [0, -1]},
        {"payload": (0,) * 49},
    ])
    def test_out_of_range_packet_raises_at_from_packet(self, fields):
        packet = AtmCell.with_payload(1, 10, [1]).to_packet()
        packet.fields.update(fields)
        with pytest.raises(CellFormatError):
            AtmCell.from_packet(packet)

    def test_idle_cell(self):
        assert AtmCell.idle().is_idle
        assert not AtmCell(vpi=1, vci=1).is_idle

    @given(gfc=st.integers(0, 15), vpi=st.integers(0, 255),
           vci=st.integers(0, 65535), pt=st.integers(0, 7),
           clp=st.integers(0, 1),
           payload=st.lists(st.integers(0, 255), min_size=48, max_size=48))
    def test_property_octet_round_trip(self, gfc, vpi, vci, pt, clp,
                                       payload):
        cell = AtmCell(gfc=gfc, vpi=vpi, vci=vci, pt=pt, clp=clp,
                       payload=tuple(payload))
        again = AtmCell.from_octets(cell.to_octets())
        assert again == cell
