-- Automatically generated by the PoET-BiN reproduction.
-- 4 LUT nodes, 4 feature bits,
-- 2 output bits, logic depth 3.
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity golden_dut is
  port (
    features : in  std_logic_vector(3 downto 0);
    outputs  : out std_logic_vector(1 downto 0)
  );
end entity golden_dut;

architecture lut_network of golden_dut is
  constant table_t0 : std_logic_vector(0 to 3) := "0110";
  constant table_t1 : std_logic_vector(0 to 7) := "01010101";
  constant table_n2_mat_out : std_logic_vector(0 to 7) := "00010111";
  constant table_stage2 : std_logic_vector(0 to 1) := "01";
  signal t0 : std_logic;
  signal t1 : std_logic;
  signal n2_mat_out : std_logic;
  signal stage2 : std_logic;
begin
  -- rinc0 LUT, 2 inputs
  t0 <= table_t0(to_integer(unsigned(std_logic_vector'(features(0) & features(1)))));
  -- rinc0 LUT, 3 inputs
  t1 <= table_t1(to_integer(unsigned(std_logic_vector'(features(2) & features(3) & features(0)))));
  -- mat LUT, 3 inputs
  n2_mat_out <= table_n2_mat_out(to_integer(unsigned(std_logic_vector'(t0 & t1 & features(1)))));
  -- rinc0 LUT, 1 inputs
  stage2 <= table_stage2(to_integer(unsigned(std_logic_vector'(0 => n2_mat_out))));
  outputs(0) <= stage2;
  outputs(1) <= features(3);
end architecture lut_network;
